import pytest

import oracles
import wgeig
import wgeig.polyspace

MOVED = ("Diagnostics", "eigen_diagnostics", "l2_error", "lower_bound_check", "vnorm_error",
         "norm1_matrix", "solve_source", "stabilizer_matrix", "weak_gradient_local",
         "weak_laplacian_local", "SolverFailureError", "MultiplicityMismatchError")
# The mapped square and segment rules are independent quadrature oracles of
# the tests; the local kit integrates with its own offset rules.
MOVED_TO_ORACLES = ("Square", "Segment", "QuadratureRule", "EdgeBasis")


def test_every_export_resolves():
    # The lazy loader fails a stale export only when it is read; read them all.
    for name in wgeig.__all__:
        assert getattr(wgeig, name) is not None
    assert dir(wgeig) == sorted(wgeig.__all__)


@pytest.mark.parametrize("name", MOVED)
def test_verification_helpers_are_not_exported(name):
    assert name not in wgeig.__all__
    with pytest.raises(AttributeError):
        getattr(wgeig, name)


@pytest.mark.parametrize("name", MOVED_TO_ORACLES)
def test_square_and_segment_rules_live_with_the_oracles(name):
    assert not hasattr(wgeig.polyspace, name)
    assert hasattr(oracles, name)
