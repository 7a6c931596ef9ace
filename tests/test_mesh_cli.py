import json
import os
import warnings
from collections import Counter

import numpy as np
import pytest

from coxspec import verify
from coxspec.cli import main
from coxspec.coxmaps import fundamental_point, fundamental_vectors
from coxspec.mesh import (
    MeshDocument,
    MeshError,
    build_cayley_mesh,
    build_orbit_mesh,
    cayley_faces,
    export_obj,
    export_off,
    parse_off,
    vertex_configuration,
)
from coxspec.randwalk import uniform_point
from coxspec.solids import curve_limit
from coxspec.spectral import lambda1_cluster, spectral_representation


def h3_mesh(graphs):
    x = uniform_point(3)
    pts = spectral_representation(graphs["H3"], x, lambda1_cluster(graphs["H3"], x))
    return build_cayley_mesh(pts, graphs["H3"])


class TestCayleyFaces:
    def test_h3_census(self, graphs):
        census = Counter(len(f) for f in cayley_faces(graphs["H3"]))
        assert census == {4: 30, 6: 20, 10: 12}

    def test_a3_census(self, graphs):
        census = Counter(len(f) for f in cayley_faces(graphs["A3"]))
        assert census == {4: 6, 6: 8}

    @pytest.mark.parametrize("name,euler", [("A3", 2), ("B3", 2), ("H3", 2)])
    def test_euler_characteristic(self, graphs, name, euler):
        mesh = MeshDocument(
            vertices=np.zeros((graphs[name].n_vertices, 3)),
            faces=cayley_faces(graphs[name]),
        )
        assert mesh.euler_characteristic() == euler

    def test_every_edge_in_two_faces(self, graphs):
        counts = Counter()
        for f in cayley_faces(graphs["H3"]):
            for a, b in zip(f, f[1:] + f[:1]):
                counts[(min(a, b), max(a, b))] += 1
        assert len(counts) == 180
        assert set(counts.values()) == {2}


class TestOrbitMeshes:
    @pytest.mark.parametrize(
        "j,config",
        [(0, (3, 3, 3, 3, 3)), (1, (5, 5, 5)), (2, (3, 5, 3, 5))],
    )
    def test_h3_degenerate_orbits(self, h3, j, config):
        p, _ = fundamental_vectors(h3)
        mesh = build_orbit_mesh(h3, p[j] / np.linalg.norm(p[j]))
        assert mesh.euler_characteristic() == 2
        for v in range(len(mesh.vertices)):
            assert vertex_configuration(mesh, v) == config

    def test_h3_generic_orbit(self, h3):
        fp = fundamental_point(h3, [1.0, 1.0, 1.0])
        mesh = build_orbit_mesh(h3, fp.point)
        assert len(mesh.vertices) == 120
        assert vertex_configuration(mesh) == (4, 6, 10)

    @pytest.mark.parametrize(
        "curve,config",
        [("C1", (3, 10, 10)), ("C2", (5, 6, 6)), ("C3", (3, 4, 5, 4))],
    )
    def test_h3_curve_limit_solids(self, h3, curve, config):
        p, pts, _ = curve_limit(curve, h3, "inf")
        mesh = build_orbit_mesh(h3, p)
        assert len(mesh.vertices) == 60
        assert mesh.euler_characteristic() == 2
        for v in range(0, 60, 7):
            assert vertex_configuration(mesh, v) == config


class TestOffObj:
    def test_single_triangle_layout(self, tmp_path):
        mesh = MeshDocument(
            vertices=np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
            faces=[[0, 1, 2]],
        )
        path = tmp_path / "tri.off"
        export_off(mesh, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "OFF"
        assert lines[1] == "3 1 3"
        assert lines[2:5] == ["0 0 0", "1 0 0", "0 1 0"]
        assert lines[5] == "3 0 1 2"
        assert len(lines) == 6

    def test_round_trip_bit_exact(self, graphs, tmp_path):
        mesh = h3_mesh(graphs)
        p1, p2 = tmp_path / "a.off", tmp_path / "b.off"
        export_off(mesh, p1)
        export_off(parse_off(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_counts_line(self, graphs, tmp_path):
        path = tmp_path / "h3.off"
        export_off(h3_mesh(graphs), path)
        assert path.read_text().splitlines()[1] == "120 62 180"

    def test_obj_records(self, graphs, tmp_path):
        path = tmp_path / "h3.obj"
        export_obj(h3_mesh(graphs), path)
        lines = path.read_text().splitlines()
        assert sum(1 for l in lines if l.startswith("v ")) == 120
        f_lines = [l for l in lines if l.startswith("f ")]
        assert len(f_lines) == 62
        assert min(int(t) for l in f_lines for t in l.split()[1:]) == 1

    def test_parse_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.off"
        path.write_text("PLY\n0 0 0\n")
        with pytest.raises(MeshError):
            parse_off(path)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "OFF\n3 1 3\n0 0 0\n1 0 0\n",
            "OFF\n3 1 3\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n4 0 1 2 3\n",
            "OFF\n3 1 3\n0 0 0\n1 0 0\n0 1 0\n3 0 1 3\n",
        ],
        ids=["empty", "truncated", "count-mismatch", "missing-vertex"],
    )
    def test_parse_rejects_broken_files(self, tmp_path, text):
        path = tmp_path / "broken.off"
        path.write_text(text)
        with pytest.raises(MeshError):
            parse_off(path)

    def test_export_reports_bytes(self, graphs, tmp_path):
        path = tmp_path / "h3.off"
        nbytes = export_off(h3_mesh(graphs), path)
        assert nbytes == path.stat().st_size


class TestCli:
    def test_group(self, capsys):
        assert main(["group", "--group", "H3"]) == 0
        out = capsys.readouterr().out
        assert "order 120" in out
        assert "edges 180" in out
        assert "4-gon:30 6-gon:20 10-gon:12" in out
        assert "euler 2" in out

    def test_spectrum(self, capsys):
        assert main(["spectrum", "--group", "A3", "--point", "0.3,0.3,0.4"]) == 0
        out = capsys.readouterr().out
        assert "0.8 multiplicity 3" in out

    def test_minimize(self, capsys):
        assert main(["minimize", "--group", "A3"]) == 0
        out = capsys.readouterr().out
        assert "closed form lambda1 0.8" in out
        assert "equilateral True" in out

    def test_embed_off(self, tmp_path, capsys):
        out_file = tmp_path / "h3.off"
        assert main(["embed", "--group", "H3", "--out", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "faithful True" in out
        assert parse_off(out_file).vertices.shape == (120, 3)

    def test_curve_csv(self, tmp_path):
        out_file = tmp_path / "c2.csv"
        assert main(
            ["curve", "--group", "H3", "--curve", "C2", "--samples", "5",
             "--out", str(out_file)]
        ) == 0
        lines = out_file.read_text().splitlines()
        assert lines[0] == "t,x,y,z,lambda1,len1,len2,len3"
        assert len(lines) == 6

    def test_curve_forms_no_orbit(self, tmp_path, monkeypatch):
        # a curve sample is closed forms of one fundamental point
        def no_orbit(group, p):
            raise AssertionError("curve formed an orbit")

        monkeypatch.setattr("coxspec.coxmaps.orbit_points", no_orbit)
        monkeypatch.setattr("coxspec.solids.orbit_points", no_orbit)
        out_file = tmp_path / "c1.csv"
        assert main(["curve", "--group", "H3", "--curve", "C1", "--out", str(out_file)]) == 0
        assert len(out_file.read_text().splitlines()) == 51

    def test_curve_at_huge_parameter(self, tmp_path, capsys):
        # cone coefficients of 1e160 once overflowed the norm to NaN weights
        out_file = tmp_path / "c2.csv"
        argv = ["curve", "--group", "H3", "--curve", "C2", "--t-max", "1e160",
                "--out", str(out_file)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 0
        assert capsys.readouterr().err == ""
        rows = [line.split(",") for line in out_file.read_text().splitlines()[1:]]
        assert len(rows) == 50
        assert all(np.isfinite(float(v)) for row in rows for v in row)

    def test_closed_stdout_exits_without_traceback(self, tmp_path, capsys, monkeypatch):
        # a reader such as `head -1` that stops early closes the pipe
        fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)

        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                pass

            def fileno(self):
                return fd

        self.one_record_suite(monkeypatch, passed=True)
        monkeypatch.setattr("sys.stdout", ClosedPipe())
        try:
            assert main(["verify", "--suite", "closed_forms"]) == 1
            # stdout now points at devnull, so the flush at exit cannot fail
            assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
        finally:
            os.close(fd)
        assert capsys.readouterr().err == ""

    def test_sweep_csv(self, tmp_path):
        out_file = tmp_path / "sweep.csv"
        assert main(["sweep", "--group", "A3", "--grid", "4", "--out", str(out_file)]) == 0
        lines = out_file.read_text().splitlines()
        assert lines[0] == "x,y,z,lambda1,mult,len1,len2,len3"
        assert len(lines) == 7

    @staticmethod
    def one_record_suite(monkeypatch, passed):
        record = {"id": "stub", "value": 0.0 if passed else 1.0, "tolerance": 0.5,
                  "passed": passed, "criterion": None}
        monkeypatch.setattr(verify, "_SUITES", {"closed_forms": lambda: [record]})
        return record

    def test_verify_suite(self, capsys, monkeypatch):
        record = self.one_record_suite(monkeypatch, passed=True)
        assert main(["verify", "--suite", "closed_forms"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report == {"suite": "closed_forms", "checks": [record], "passed": True}

    def test_verify_failing_record_exits_one(self, capsys, monkeypatch):
        record = self.one_record_suite(monkeypatch, passed=False)
        assert main(["verify", "--suite", "closed_forms"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report == {"suite": "closed_forms", "checks": [record], "passed": False}

    def test_verify_unknown_suite(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "nope"])
        assert exc.value.code == 2

    def test_bad_point_rejected(self, capsys):
        assert main(["spectrum", "--group", "A3", "--point", "0.5,0.5,0.5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("coxspec: ") and err.count("\n") == 1

    @pytest.mark.parametrize("verb", ["spectrum", "embed"])
    @pytest.mark.parametrize("point", ["0.5,0.5", "0.2,0.3,0.5,0"])
    def test_point_needs_three_numbers(self, tmp_path, capsys, verb, point):
        out_file = tmp_path / "out.off"
        argv = [verb, "--group", "H3", "--point", point]
        if verb == "embed":
            argv += ["--out", str(out_file)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"coxspec: --point must be three numbers x,y,z, got {point!r}\n"
        assert not out_file.exists()

    def test_bad_eigenvalue_names_range(self, tmp_path, capsys):
        out_file = tmp_path / "a3.off"
        assert main(["embed", "--group", "A3", "--eigenvalue", "99", "--out", str(out_file)]) == 2
        assert "cluster index 0.." in capsys.readouterr().err
        assert not out_file.exists()

    @pytest.mark.parametrize(
        "args",
        [["--t-min", "-1"], ["--t-min", "2", "--t-max", "1"], ["--samples", "0"],
         ["--t-max", "inf"], ["--t-min", "nan"]],
    )
    def test_bad_curve_parameters_leave_no_file(self, tmp_path, capsys, args):
        out_file = tmp_path / "c2.csv"
        argv = ["curve", "--group", "H3", "--curve", "C2", "--out", str(out_file), *args]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning on the way
            assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("coxspec: ") and err.count("\n") == 1
        assert not out_file.exists()

    @pytest.mark.parametrize(
        "argv",
        [["sweep", "--group", "A3", "--grid", "3"], ["curve", "--group", "A3", "--curve", "C1"]],
    )
    def test_unwritable_out_is_one_line_error(self, tmp_path, capsys, argv, monkeypatch):
        # the file is opened before any work: no group is built
        def no_work(name):
            raise AssertionError("work started before --out was opened")

        monkeypatch.setattr("coxspec.cli.build_group", no_work)
        out_file = tmp_path / "missing" / "out.csv"
        assert main([*argv, "--out", str(out_file)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("coxspec: cannot write --out ") and err.count("\n") == 1
        assert not out_file.exists()

    def test_invariance_failure_is_one_line_error(self, tmp_path, capsys, monkeypatch):
        # a class-length spread above the tolerance is a CoxspecError
        monkeypatch.setattr("coxspec.spectral.EDGE_SPREAD_TOL", -1.0)
        out_file = tmp_path / "h3.off"
        assert main(["embed", "--group", "H3", "--out", str(out_file)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("coxspec: edge class ") and err.count("\n") == 1
        assert not out_file.exists()

    def test_failed_sweep_leaves_no_file(self, tmp_path, capsys):
        out_file = tmp_path / "sweep.csv"
        assert main(["sweep", "--group", "A3", "--grid", "1", "--out", str(out_file)]) == 2
        assert capsys.readouterr().err.startswith("coxspec: ")
        assert not out_file.exists()
