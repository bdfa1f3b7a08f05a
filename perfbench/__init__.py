"""crownkit's benchmark harness; run it with `python3 perfbench/run.py`."""
