"""Tests of the benchmark's own machinery (tracer, digest checks, definition)."""
