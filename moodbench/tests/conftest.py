"""pytest glue for the benchmark's self-tests (run explicitly; tier-1's
``testpaths`` do not reach this directory)."""


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: runs the whole benchmark once in --quick mode"
    )
