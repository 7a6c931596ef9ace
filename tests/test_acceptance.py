"""Acceptance gate: one test per numbered criterion over the records of
`coxspec verify --suite all` (the checks themselves live in
coxspec.verify).  Each test prints one pass/fail line, so the whole gate
is readable from the pytest -s output."""

from coxspec.verify import CRITERIA


def gate(report, number):
    records = [c for c in report["checks"] if c["criterion"] == number]
    passed = bool(records) and all(c["passed"] for c in records)
    print(f"criterion {number:2d} [{'PASS' if passed else 'FAIL'}] {CRITERIA[number]}")
    assert passed, [c for c in records if not c["passed"]] or "no records"


def test_criterion_01_h3_closed_form_minimum(verify_report):
    gate(verify_report, 1)


def test_criterion_02_b3_a3_closed_form_minima(verify_report):
    gate(verify_report, 2)


def test_criterion_03_canonical_laplacian(verify_report):
    gate(verify_report, 3)


def test_criterion_04_equilateral_correspondence(verify_report):
    gate(verify_report, 4)


def test_criterion_05_derivative_identity(verify_report):
    gate(verify_report, 5)


def test_criterion_06_fourier_crosscheck(verify_report):
    gate(verify_report, 6)


def test_criterion_07_psi_consistency(verify_report):
    gate(verify_report, 7)


def test_criterion_08_structural_counts(verify_report):
    gate(verify_report, 8)


def test_criterion_09_boundary_and_curves(verify_report):
    gate(verify_report, 9)


def test_criterion_10_property_suites(verify_report):
    gate(verify_report, 10)
