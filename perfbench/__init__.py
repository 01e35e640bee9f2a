"""trackmine's benchmark: see run.py."""
