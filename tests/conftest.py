"""Shared builders, cached so the dense operators are assembled once per level."""

import functools

import pytest

import wavecol as w


@functools.lru_cache(maxsize=None)
def _operator_bundle(max_level: int):
    spec = w.BasisSpec(max_level=max_level)
    gram = w.gram_matrix(spec)
    dual = w.dual_transform(gram)
    deriv_op = w.derivative_matrix(spec, gram)
    return spec, gram, dual, deriv_op


@functools.lru_cache(maxsize=None)
def _benchmark_run(case_id: int, reynolds: float, n_points: int):
    case = w.case_definition(case_id, reynolds=reynolds)
    return w.run_case(case, n_points)


@pytest.fixture(scope="session")
def operators():
    """operators(max_level) -> (spec, gram, dual, deriv_op), memoized."""
    return _operator_bundle


@pytest.fixture(scope="session")
def benchmark_run():
    """benchmark_run(case_id, reynolds, n_points) -> RunResult, memoized."""
    return _benchmark_run


@pytest.fixture
def fresh_tables():
    """Empties every per-process table the package keeps, before and after
    the test: the node values T, the P1 kernel, the solver's node rows and
    checked T, and the runs' resolution tables.  So a patched builder or
    guard is called, a traced build is seen, and what a patch built does
    not outlive the test."""
    caches = (w.basis._nodal_matrix, w.operators.p1_kernel,
              w.solver.derivative_rows, w.solver._interpolation_matrix,
              w.bench._resolution_tables)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()
