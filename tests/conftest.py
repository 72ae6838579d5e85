import multiprocessing

import pytest


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    rep = outcome.get_result()
    setattr(item, "rep_" + rep.when, rep)


@pytest.fixture(autouse=True)
def no_stray_processes():
    """Fail a test that leaves a child process of multiprocessing running,
    such as a `scenario._forked` worker of `converge` or of `run`'s split
    coefficients.csv writer."""
    yield
    stray = multiprocessing.active_children()
    for proc in stray:
        proc.terminate()
        proc.join()
    if stray:
        pytest.fail("test left child processes running: %r" % stray)
