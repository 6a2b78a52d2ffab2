import pytest

import supconc.ensembles as ensembles


@pytest.fixture(autouse=True)
def no_idle_pool():
    # a pooled campaign leaves its pool idle for the next one in the process:
    # each test starts and ends with none, so no pool forked before a test's
    # monkeypatch serves the test, and no test's pool outlives it
    ensembles.release_pool()
    yield
    ensembles.release_pool()
