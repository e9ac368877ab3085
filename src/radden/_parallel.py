"""The package's threads, worker processes and locks.  The BLAS pin runs
numpy's OpenBLAS on one thread and yields its budget, min(the BLAS threads
the outermost pin found, the cores), or 1 with no setter: a grid point's
trainers pool up to it and the block map up to the cores, less the pool
threads running a call.  Pooled outputs are bitwise equal to serial ones
(evidence: CHANGES.md)."""
from __future__ import annotations

import contextlib
import ctypes
import functools
import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

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
    wheels, `openblas_*_num_threads64_` in the ILP64 OpenBLAS of numpy 1.22
    to 1.26 wheels, and the plain `openblas_*_num_threads` of an OpenBLAS
    built without a suffix, such as a system library."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:   # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    try:
        lib = ctypes.CDLL(umath.__file__)
    except OSError:
        return None
    for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "64_"),
                           ("openblas_", "")):
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
_pool_running = 0  # pool threads of all _pooled blocks running a call


@contextlib.contextmanager
def _one_blas_thread():
    """This process's BLAS on one thread for the block; yields the budget.
    Pins nest across threads: the first to open sets 1 and finds the budget,
    the last to close restores the count, also when the block raises."""
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
    """Under one BLAS pin, start the first threads - 1 - _pool_running of the
    list `calls` (callables of no argument) on pool threads, `threads` being
    the pin's budget unless given; yields their futures.  The block runs the
    rest on the calling thread.  On exit every started call has returned, no
    pool thread is left, and the first error of a started call is raised on
    the calling thread."""
    global _pool_running
    with _one_blas_thread() as budget:
        with _pin_lock:
            calls = calls[:max(0, (threads or budget) - 1 - _pool_running)]
            if calls:   # a pool starts no thread before its first submit
                pool = ThreadPoolExecutor(len(calls))
                _pool_running += len(calls)
        if not calls:
            yield []
            return
        with pool:
            started = [pool.submit(_counted, call) for call in calls]
            # a pool thread drops its call once it has returned, and with it
            # the call's arguments; holding the calls here would keep them
            del calls
            yield started
            for future in started:
                future.result()


def _counted(call):
    """call() on a pool thread, counted as running until it returns."""
    global _pool_running
    try:
        return call()
    finally:
        with _pin_lock:
            _pool_running -= 1


def _map_blocks(fn, count):
    """Call fn(block) for every BLOCK_IMAGES slice of range(count) on the
    calling thread and on _pooled threads up to the cores, each taking the
    next block when it is free.  fn must write only its own block's outputs
    and call only private kernels: the benchmark's tracer keeps one span
    stack and wraps the public entry points."""
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


def _map_workers(fn, tasks, jobs):
    """[fn(task) for task in tasks]: in order on the calling thread at one
    job, else on `jobs` spawned worker processes, each starting with every
    _BLAS_THREAD_VARIABLES entry set to its share of the cores,
    max(1, cores // jobs), so that the workers' BLAS threads do not outnumber
    the cores.  (A forked worker would keep the thread count of the BLAS this
    process has loaded.)  os.environ is restored on return."""
    if jobs == 1:
        return [fn(task) for task in tasks]
    saved = {name: os.environ.get(name) for name in _BLAS_THREAD_VARIABLES}
    threads = str(max(1, _core_count() // jobs))
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARIABLES, threads))
    try:
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=jobs, mp_context=spawn) as pool:
            return list(pool.map(fn, tasks))
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
