"""Reference implementations kept as differential oracles for the test suite."""
