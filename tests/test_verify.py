"""Pins the check registry of coxspec.verify: every check id, its
tolerance and the acceptance criterion it serves.  A check that
disappears, a tolerance that changes or a criterion left without records
fails here."""

PINNED = {
    1: {"min_lambda_H3": 1e-9, "min_point_H3": 1e-6},
    2: {"min_lambda_A3": 1e-9, "min_point_A3": 1e-6, "min_lambda_B3": 1e-9, "min_point_B3": 1e-6},
    3: {
        "canonical_lambda1_A3": 1e-9, "canonical_mult_A3": 3,
        "canonical_lambda1_B3": 1e-9, "canonical_mult_B3": 3,
        "canonical_lambda1_H3": 1e-9, "canonical_mult_H3": 3,
    },
    4: {
        "x0_gradient_norm": 1e-6, "x0_equilateral": 1e-7,
        "xhat_gradient_norm": 1e-3, "xhat_not_equilateral": 1e-7,
    },
    5: {"derivative_identity": 1e-5},
    6: {
        "fourier_crosscheck_A3": 1e-9, "fourier_crosscheck_B3": 1e-9,
        "fourier_crosscheck_H3": 1e-9, "h3_char_poly_grid": 1e-12,
    },
    7: {
        "psi_vs_eigensolver_A3": 1e-9, "psi_round_trip_A3": 1e-9,
        "psi_vs_eigensolver_B3": 1e-9, "psi_round_trip_B3": 1e-9,
        "psi_vs_eigensolver_H3": 1e-9, "psi_round_trip_H3": 1e-9,
    },
    8: {
        "group_order_A3": 24, "group_order_B3": 48, "group_order_H3": 120,
        "h3_vertices": 120, "h3_edges": 180, "h3_face_census": 62, "h3_euler": 2,
    },
    9: {
        "c2_beta_length_shrinks": 1e-2, "c2_limit_t0_count": 20, "c2_limit_tinf_count": 60,
        "edge_limit_12": 12, "edge_limit_20": 20, "edge_limit_30": 30,
        "boundary_lambda1": 0.999,
    },
    10: {
        "h3_spectrum_symmetry": 1e-9, "orbit_eigenfunction_norms": 1e-8,
        "gram_invariance": 1e-8, "moment_matrix_identity": 1e-8,
        "midpoint_convexity": 1e-9, "strict_convexity_margin": 1e-10,
    },
    None: {
        "pf_gram_inverse_A3": 1e-9, "psi_lambda_uniform_A3": 1e-9,
        "pf_gram_inverse_B3": 1e-9, "psi_lambda_uniform_B3": 1e-9,
        "pf_gram_inverse_H3": 1e-9, "psi_lambda_uniform_H3": 1e-9,
    },
}


def test_registry_is_pinned(verify_report):
    ids = [c["id"] for c in verify_report["checks"]]
    assert len(ids) == len(set(ids)) == 53
    got = {}
    for c in verify_report["checks"]:
        got.setdefault(c["criterion"], {})[c["id"]] = c["tolerance"]
    assert got == PINNED


def test_every_criterion_has_records(verify_report):
    criteria = {c["criterion"] for c in verify_report["checks"]}
    assert criteria == set(range(1, 11)) | {None}
