"""The package's public names: every exported name resolves, and the
records that hold arrays compare and hash by identity."""

import numpy as np

import wavecol


def test_every_exported_name_resolves():
    missing = [name for name in wavecol.__all__
               if not hasattr(wavecol, name)]
    assert not missing
    assert len(set(wavecol.__all__)) == len(wavecol.__all__)


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from wavecol import *", namespace)
    assert set(wavecol.__all__) <= set(namespace)


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
