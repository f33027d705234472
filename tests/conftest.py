import importlib.util


def pytest_configure(config):
    # The numba warning filter can only be installed where numba is present;
    # naming a missing module in filterwarnings warns once per test.
    if importlib.util.find_spec("numba") is not None:
        config.addinivalue_line("filterwarnings", "ignore::numba.core.errors.NumbaWarning")
