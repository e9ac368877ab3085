import pytest

from radden import _parallel


class FakeBlas:
    """A BLAS thread get/set pair that records each count set.  Given the
    process's own (get, set) pair, it sets the real BLAS to one thread
    whenever it is set to one, and back to the real count otherwise, so that
    pinned blocks run at one real BLAS thread, as they do outside tests."""
    def __init__(self, threads, real=None):
        self.threads, self.set_to, self.real = threads, [], real
        self.real_threads = real[0]() if real else None

    def get(self):
        return self.threads

    def set(self, threads):
        self.threads = threads
        self.set_to.append(threads)
        if self.real is not None:
            self.real[1](1 if threads == 1 else self.real_threads)


@pytest.fixture
def fake_threads(monkeypatch):
    """fake_threads(cores, blas): this process's cores, and a FakeBlas at
    `blas` threads as its BLAS thread setter (None: no setter found), so
    that the pin's budget is min(blas or 1, cores).  Returns the FakeBlas.
    The real BLAS thread count is restored at teardown."""
    real = _parallel._blas_thread_functions()
    real_threads = real[0]() if real else None

    def fake(cores, blas):
        fake_blas = None if blas is None else FakeBlas(blas, real)
        functions = None if blas is None else (fake_blas.get, fake_blas.set)
        monkeypatch.setattr(_parallel, "_core_count", lambda: cores)
        monkeypatch.setattr(_parallel, "_blas_thread_functions",
                            lambda: functions)
        return fake_blas

    yield fake
    if real is not None:
        real[1](real_threads)
