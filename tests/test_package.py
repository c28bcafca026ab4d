"""The package's public names: every exported name resolves, every
exported function is one a run reaches, and the records that hold arrays
compare and hash by identity."""

import inspect
import sys

import numpy as np

import wavecol
from wavecol import bench, cli

#: Exported functions no run calls, each with the reason it stays.
_UNREACHED = {
    "split_levels": "the north star names it and ROADMAP item 4 reads it",
    "basis_piecewise": "wavebench/tracing.py binds it until ROADMAP item 1",
}


def test_every_exported_name_resolves():
    missing = [name for name in wavecol.__all__
               if not hasattr(wavecol, name)]
    assert not missing
    assert len(set(wavecol.__all__)) == len(wavecol.__all__)


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from wavecol import *", namespace)
    assert set(wavecol.__all__) <= set(namespace)


def test_every_exported_function_is_one_a_run_reaches(tmp_path):
    # earlier tests warm the resolution tables, whose cache would hide the
    # operator and basis builds
    bench._resolution_tables.cache_clear()
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
    unreached = sorted(
        name for name in wavecol.__all__
        if inspect.isfunction(function := getattr(wavecol, name))
        and function.__code__ not in called)
    assert unreached == sorted(_UNREACHED), f"not reached: {unreached}"


def test_records_that_hold_arrays_compare_by_identity():
    # == on their array fields would raise, and hash() would too
    case = wavecol.case_definition(1, times=(0.05,))
    first, second = (wavecol.run_case(case, 17) for _ in range(2))
    spec = wavecol.spec_for_points(17)
    coeffs = np.arange(17.0)
    records = [(first, second), (first.report, second.report),
               (first.series, second.series),
               (first.series.system, second.series.system),
               (wavecol.split_levels(coeffs, spec),
                wavecol.split_levels(coeffs, spec))]
    for one, other in records:
        assert type(one) is type(other)
        assert one is not other
        assert not one == other and one != other
        assert one == one
        assert hash(one) == hash(one)
        assert len({one, other}) == 2
