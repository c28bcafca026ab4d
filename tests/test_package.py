"""The package's public names: every exported name resolves, every public
function, method and property of its modules is one a run reaches, and the
records that hold arrays compare and hash by identity."""

import importlib
import inspect
import pkgutil
import sys

import numpy as np

import wavecol
from wavecol import bench, cli

#: Public functions and methods no run calls, each with the reason it stays.
_EXACT_REFERENCE = "tests/exact_reference.py integrates it (ROADMAP item 1)"
_UNREACHED = {
    "split_levels": "the north star names it and ROADMAP item 4 reads it",
    "basis_piecewise": "wavebench/tracing.py binds it until ROADMAP item 1",
    "SolverConfig.n_steps": "wavebench/tracing.py's solve hook reads it",
    "PiecewiseLinear.__post_init__": _EXACT_REFERENCE,
    "PiecewiseLinear.support": _EXACT_REFERENCE,
    "PiecewiseLinear.__call__": _EXACT_REFERENCE,
    "PiecewiseLinear.derivative": _EXACT_REFERENCE,
}


def test_every_exported_name_resolves():
    missing = [name for name in wavecol.__all__
               if not hasattr(wavecol, name)]
    assert not missing
    assert len(set(wavecol.__all__)) == len(wavecol.__all__)


def test_wavelet_space_builders_stay_out_of_the_package_namespace():
    # the scheme needs only the nodal kernel and T; the builders live in
    # wavecol.operators, and wavecol.bench keeps the binding that
    # wavebench/selfcheck.py checks
    builders = ("gram_matrix", "dual_transform", "derivative_inner_products",
                "derivative_matrix")
    for name in builders:
        assert not hasattr(wavecol, name)
        assert name not in wavecol.__all__
        assert callable(getattr(wavecol.operators, name))
    assert len(wavecol.__all__) == 25
    assert bench.gram_matrix is wavecol.operators.gram_matrix


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from wavecol import *", namespace)
    assert set(wavecol.__all__) <= set(namespace)


def _methods(cls):
    """(name, function) of each method and property getter written in the
    body of cls, public or a dunder such as __post_init__; the methods a
    dataclass generates are compiled from strings, not from the module."""
    source = inspect.getsourcefile(cls)
    for name, value in vars(cls).items():
        function = value.fget if isinstance(value, property) else value
        if (inspect.isfunction(function)
                and (not name.startswith("_") or name.endswith("__"))
                and function.__code__.co_filename == source):
            yield f"{cls.__name__}.{name}", function


def _public_functions():
    """(name, function) of every public module-level function that a
    wavecol module defines, unwrapped from its cache if it has one, and of
    every method and property of its public classes but the errors, whose
    constructors run only when a run fails."""
    for info in pkgutil.iter_modules(wavecol.__path__):
        module = importlib.import_module(f"wavecol.{info.name}")
        for name, value in vars(module).items():
            function = inspect.unwrap(value)
            if name.startswith("_") or getattr(
                    function, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(function):
                yield name, function
            elif (inspect.isclass(function)
                  and not issubclass(function, BaseException)):
                yield from _methods(function)


def test_every_public_function_is_one_a_run_reaches(tmp_path, fresh_tables):
    # earlier tests warm the per-process tables, whose caches would hide
    # the kernel, operator and basis builds
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(profile)
    try:
        for case_id in (1, 2):
            result = wavecol.run_case(
                wavecol.case_definition(case_id, times=(0.05,)), 9)
            bench.emit_reports(result, "csv", tmp_path / "api")
            bench.emit_profiles(result, tmp_path / "api")
        for argv in (["--profiles"], ["--format", "md", "--truncate-level", "2"],
                     ["--dump-operators"]):
            code = cli.main(["--case", "3", "--np", "9", "--times", "0.05",
                             *argv, "--out", str(tmp_path / "cli")])
            assert code == cli.EXIT_OK
    finally:
        sys.setprofile(None)
    unreached = sorted(name for name, function in _public_functions()
                       if function.__code__ not in called)
    assert unreached == sorted(_UNREACHED), f"not reached: {unreached}"


def test_records_that_hold_arrays_compare_by_identity():
    # == on their array fields would raise, and hash() would too
    case = wavecol.case_definition(1, times=(0.05,))
    first, second = (wavecol.run_case(case, 17) for _ in range(2))
    spec = wavecol.spec_for_points(17)
    coeffs = np.arange(17.0)
    config = wavecol.SolverConfig(reynolds=1.0, times=(0.05,),
                                  bc=case.bc, ic=case.ic, spec=spec)
    records = [(first, second), (first.report, second.report),
               (wavecol.assemble_lhs(config), wavecol.assemble_lhs(config)),
               (wavecol.split_levels(coeffs, spec),
                wavecol.split_levels(coeffs, spec))]
    for one, other in records:
        assert type(one) is type(other)
        assert one is not other
        assert not one == other and one != other
        assert one == one
        assert hash(one) == hash(one)
        assert len({one, other}) == 2
