"""Threads: the process-wide BLAS pin, one pool helper, and the BLAS thread
count of a sweep's workers.  A grid point's trainers pool up to the pin's
budget, min(the BLAS threads the outermost pin found, the cores): 1 at one
BLAS thread or with no setter.  The block map pools up to the cores alone.
Pooled outputs are bitwise equal to serial ones (evidence: CHANGES.md)."""
from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor

# Images per block of _map_blocks, the unit of work it hands to a thread.  It
# bounds the temporary stacks of each call: the SVD and wavelet working
# copies, and SSIM's contiguous inputs, window products and filtered maps.
BLOCK_IMAGES = 128


def _core_count():
    """Cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.cache
def _blas_thread_functions():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None.

    numpy's wheels link OpenBLAS into `_multiarray_umath`, and its handle
    finds the library's symbols: `scipy_openblas_*_num_threads64_` in numpy 2
    wheels, the plain `openblas_*_num_threads` in older ones."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:   # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    try:
        lib = ctypes.CDLL(umath.__file__)
    except OSError:
        return None
    for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "")):
        get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
        set_ = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = (), ctypes.c_int
            set_.argtypes, set_.restype = (ctypes.c_int,), None
            return get, set_
    return None


# the open _one_blas_thread blocks of all threads, the thread count and setter
# that the last of them to close restores, and the budget they share
_pin_lock = threading.Lock()
_pin_depth = 0
_pin_threads, _pin_set, _pin_budget = 1, None, 1


@contextlib.contextmanager
def _one_blas_thread():
    """This process's BLAS on one thread for the block; yields the budget.
    The count is process-wide: the first open pin of any thread sets 1 and
    finds the budget, the last to close restores the count, also when the
    block raises, and the pins in between set nothing."""
    global _pin_depth, _pin_threads, _pin_set, _pin_budget
    with _pin_lock:
        if _pin_depth == 0:
            _pin_threads, _pin_set = 1, None
            functions = _blas_thread_functions()
            if functions is not None:
                get, _pin_set = functions
                _pin_threads = get()
                _pin_set(1)
            _pin_budget = min(_pin_threads, _core_count())
        _pin_depth += 1
        budget = _pin_budget
    try:
        yield budget
    finally:
        with _pin_lock:
            _pin_depth -= 1
            if _pin_depth == 0 and _pin_set is not None:
                _pin_set(_pin_threads)


@contextlib.contextmanager
def _pooled(calls, threads=None):
    """Under one BLAS pin, start the first threads - 1 of the list `calls`
    (callables of no argument) on pool threads, `threads` being the pin's
    budget unless given; yields their futures.  The block runs the rest on
    the calling thread.  On exit every started call has returned, no pool
    thread is left, and the first error of a started call is raised on the
    calling thread."""
    with _one_blas_thread() as budget:
        calls = calls[:(threads or budget) - 1]
        if not calls:
            yield []
            return
        with ThreadPoolExecutor(len(calls)) as pool:
            started = [pool.submit(call) for call in calls]
            # a pool thread drops its call once it has returned, and with it
            # the call's arguments; holding the calls here would keep them
            del calls
            yield started
            for future in started:
                future.result()


def _map_blocks(fn, count):
    """Call fn(block) for every BLOCK_IMAGES slice of range(count), on the
    calling thread and one _pooled thread per further core in turn, at any
    BLAS thread count (timings: CHANGES.md).  fn must write only its own
    block's outputs, and call only private kernels: the benchmark's tracer
    keeps one span stack and wraps the public entry points."""
    blocks = iter([slice(start, start + BLOCK_IMAGES)
                   for start in range(0, count, BLOCK_IMAGES)])
    lock = threading.Lock()

    def drain():
        while True:
            with lock:
                block = next(blocks, None)
            if block is None:
                return
            fn(block)

    with _pooled([drain] * (-(-count // BLOCK_IMAGES) - 1), _core_count()):
        drain()


# the variables that set a BLAS library's thread count when it loads
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS")


@contextlib.contextmanager
def _blas_threads_for_children(jobs):
    """os.environ with every _BLAS_THREAD_VARIABLES entry set to the share of
    the cores of one of `jobs` worker processes, max(1, cores // jobs),
    restored on exit.  A process started inside inherits it; this process's
    BLAS, already loaded, keeps its own thread count."""
    saved = {name: os.environ.get(name) for name in _BLAS_THREAD_VARIABLES}
    threads = max(1, _core_count() // jobs)
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARIABLES, str(threads)))
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
