import os

import pytest


def pytest_configure(config):
    """A file or socket the suite leaves open, or an error raised where no
    caller sees it, fails the test. Set for this suite alone, not in
    pyproject.toml: bench/tests' urllib sockets are freed only at exit, which
    would end that run with exit status 1."""
    for rule in ("error::ResourceWarning", "error::pytest.PytestUnraisableExceptionWarning"):
        config.addinivalue_line("filterwarnings", rule)


@pytest.fixture(autouse=True, scope="session")
def kernel_cache(tmp_path_factory):
    """Build the compiled Gibbs kernel into a temporary cache, never the
    user's ~/.cache; subprocesses inherit the variable."""
    saved = os.environ.get("XDG_CACHE_HOME")
    os.environ["XDG_CACHE_HOME"] = str(tmp_path_factory.mktemp("xdg-cache"))
    yield
    if saved is None:
        del os.environ["XDG_CACHE_HOME"]
    else:
        os.environ["XDG_CACHE_HOME"] = saved
