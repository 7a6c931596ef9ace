import dataclasses
import hashlib
import json
import os
import re
import stat
import subprocess
import sys
import warnings
from collections import Counter

import numpy as np
import pytest

import coxspec
from coxspec import cli, verify
from coxspec.cli import main
from coxspec.coxeter import coxeter_datum, generate_group
from coxspec.coxmaps import ORBIT_TOL, fundamental_point, fundamental_vectors, orbit_points
from coxspec.errors import DomainError
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
from coxspec.solids import boundary_limit, curve_limit
from coxspec.spectral import lambda1_cluster, spectral_representation


def h3_mesh(h3):
    x = uniform_point(3)
    pts = spectral_representation(h3, x, lambda1_cluster(h3, x))
    return build_cayley_mesh(pts, h3)


def walk_faces(group):
    """The alternating-generator cycles walked from each vertex not yet on
    a cycle of its pair: the loop that `ReflectionGroup.face_cycles`
    replaced, kept as the reference."""
    faces = []
    for a in range(group.rank):
        for b in range(a + 1, group.rank):
            seen = set()
            for start in range(group.order):
                if start in seen:
                    continue
                cycle, v, gen = [], start, a
                while True:
                    cycle.append(v)
                    v = int(group.successors[v, gen])
                    gen = b if gen == a else a
                    if v == start:
                        break
                seen.update(cycle)
                faces.append(cycle)
    return faces


def project_faces(faces, index):
    """The orbit faces of `build_orbit_mesh`, by the loop it replaced."""
    out = {}
    for cycle in faces:
        projected = []
        for v in (int(index[v]) for v in cycle):
            if not projected or v != projected[-1]:
                projected.append(v)
        if len(projected) > 1 and projected[0] == projected[-1]:
            projected.pop()
        if len(projected) >= 3 and len(set(projected)) == len(projected):
            out.setdefault(frozenset(projected), projected)
    return list(out.values())


def limit_points(group):
    """The fundamental points of the 9 curve and edge limits of a group,
    in the order of the pinned OFF digest."""
    points = [curve_limit(c, group, end)[0] for c in ("C1", "C2", "C3") for end in (0, "inf")]
    targets = ([0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0])
    return points + [boundary_limit(np.array(t), group)[0] for t in targets]


class TestCayleyFaces:
    @pytest.mark.parametrize("name", ["A3", "B3", "H3"])
    def test_cached_cycles_are_the_walked_faces(self, groups, name):
        cycles = groups[name].face_cycles
        assert groups[name].face_cycles is cycles  # computed once per group
        assert len(cycles) == 3
        for rows in cycles:
            assert rows.dtype == np.intp and not rows.flags.writeable
            with pytest.raises(ValueError):
                rows[0, 0] = 1
        assert cayley_faces(groups[name]) == walk_faces(groups[name])

    @pytest.mark.parametrize("swap", [(0, 2), (1, 2)])
    def test_longer_cycle_is_a_mesh_error(self, h3, swap):
        # generators relabelled against the datum: the pair (0, 1) no longer
        # has product order 2, so its walks do not close after 4 steps
        succ = h3.successors.copy()
        succ[:, list(swap)] = succ[:, list(swap[::-1])]
        tampered = dataclasses.replace(h3, successors=succ)
        message = r"pair \(0,1\) from vertex 0 does not first close after 4 steps"
        with pytest.raises(MeshError, match=message):
            tampered.face_cycles

    def test_shorter_cycle_is_a_mesh_error(self, h3):
        # generator 2 acting as generator 0: the pair (0, 2) walks s_0 s_0,
        # back at the start after 2 of its 6 steps
        succ = h3.successors.copy()
        succ[:, 2] = succ[:, 0]
        tampered = dataclasses.replace(h3, successors=succ)
        message = r"pair \(0,2\) from vertex 0 does not first close after 6 steps"
        with pytest.raises(MeshError, match=message):
            tampered.face_cycles

    def test_h3_census(self, h3):
        census = Counter(len(f) for f in cayley_faces(h3))
        assert census == {4: 30, 6: 20, 10: 12}

    def test_a3_census(self, a3):
        census = Counter(len(f) for f in cayley_faces(a3))
        assert census == {4: 6, 6: 8}

    @pytest.mark.parametrize("name,euler", [("A3", 2), ("B3", 2), ("H3", 2)])
    def test_euler_characteristic(self, groups, name, euler):
        mesh = MeshDocument(
            vertices=np.zeros((groups[name].order, 3)),
            faces=cayley_faces(groups[name]),
        )
        assert mesh.euler_characteristic() == euler

    def test_every_edge_in_two_faces(self, h3):
        counts = Counter()
        for f in cayley_faces(h3):
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

    @pytest.mark.parametrize("vertex", [-1, 120])
    def test_vertex_configuration_rejects_missing_vertex(self, h3, vertex):
        # once an IndexError (120) or "no incident faces" (-1)
        mesh = build_orbit_mesh(h3, fundamental_point(h3, [1.0, 1.0, 1.0]).point)
        with pytest.raises(MeshError, match=rf"vertex {vertex} is outside range\(0, 120\)"):
            vertex_configuration(mesh, vertex)


    def test_orbit_faces_are_the_projected_walks(self, groups):
        for group in groups.values():
            reference = walk_faces(group)
            for p in limit_points(group):
                mesh = build_orbit_mesh(group, p)
                pts, index = orbit_points(group, p)
                assert np.array_equal(mesh.vertices, pts)
                assert mesh.faces == project_faces(reference, index)

    @pytest.mark.bit_equal
    def test_limit_off_bytes_pinned(self, groups, tmp_path):
        # the OFF files of the 27 curve and edge limits on A3, B3 and H3,
        # as written before the faces were cached on the group
        digest = hashlib.sha256()
        for name in ("A3", "B3", "H3"):
            for i, p in enumerate(limit_points(groups[name])):
                path = tmp_path / f"{name}-{i}.off"
                export_off(build_orbit_mesh(groups[name], p), path)
                digest.update(path.read_bytes())
        assert digest.hexdigest() == (
            "bf8ef14a26f72436d20b9cdaf74211f9039e22ded18fdb2ee3c439f99a29bf8a"
        )


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

    def test_round_trip_bit_exact(self, h3, tmp_path):
        mesh = h3_mesh(h3)
        p1, p2 = tmp_path / "a.off", tmp_path / "b.off"
        export_off(mesh, p1)
        export_off(parse_off(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_counts_line(self, h3, tmp_path):
        path = tmp_path / "h3.off"
        export_off(h3_mesh(h3), path)
        assert path.read_text().splitlines()[1] == "120 62 180"

    def test_obj_records(self, h3, tmp_path):
        path = tmp_path / "h3.obj"
        export_obj(h3_mesh(h3), path)
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

    @pytest.mark.parametrize(
        "face,listed",
        [("2 0 1", "[0, 1]"), ("3 0 0 1", "[0, 0, 1]")],
        ids=["two-vertices", "repeated-vertex"],
    )
    def test_parse_rejects_degenerate_faces(self, tmp_path, face, listed):
        # once accepted as faces, so the Euler characteristic counted them
        path = tmp_path / "degenerate.off"
        path.write_text(f"OFF\n3 2 3\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n{face}\n")
        with pytest.raises(MeshError, match=rf"face 1 \{listed[:-1]}\] does not have 3"):
            parse_off(path)

    def test_parse_rejects_missing_file(self, tmp_path):
        # once a bare FileNotFoundError
        path = tmp_path / "absent.off"
        with pytest.raises(MeshError, match="cannot read OFF file .*absent.off"):
            parse_off(path)

    def test_parse_rejects_non_ascii(self, tmp_path):
        # once a bare UnicodeDecodeError
        path = tmp_path / "latin.off"
        path.write_bytes("OFF\n3 1 3\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n# \u00e9\n".encode("latin-1"))
        with pytest.raises(MeshError, match="cannot read OFF file .*latin.off"):
            parse_off(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_parse_rejects_non_finite_coordinate(self, tmp_path, value):
        # once accepted into the vertices
        path = tmp_path / "nonfinite.off"
        path.write_text(f"OFF\n3 1 3\n0 0 0\n1 {value} 0\n0 1 0\n3 0 1 2\n")
        with pytest.raises(MeshError, match="nonfinite.off: .*non-finite coordinate"):
            parse_off(path)

    def test_obj_and_off_vertices_agree(self, h3, tmp_path):
        mesh = h3_mesh(h3)
        export_off(mesh, tmp_path / "h3.off")
        export_obj(mesh, tmp_path / "h3.obj")
        off = tmp_path.joinpath("h3.off").read_text().splitlines()[2:122]
        obj = tmp_path.joinpath("h3.obj").read_text().splitlines()[:120]
        assert obj == ["v " + line for line in off]
        assert [[float(t) for t in line.split()] for line in off] == mesh.vertices.tolist()

    def test_export_reports_bytes(self, h3, tmp_path):
        path = tmp_path / "h3.off"
        nbytes = export_off(h3_mesh(h3), path)
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

    @staticmethod
    def embed_h3(tmp_path, argv):
        # `coxspec embed --group H3` in a subprocess: its code, its stderr
        # lines and whether it left an --out file
        out_file = tmp_path / "k.off"
        src = os.path.dirname(os.path.dirname(os.path.abspath(coxspec.__file__)))
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-m", "coxspec.cli", "embed", "--group", "H3", *argv,
             "--out", str(out_file)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        return proc.returncode, proc.stderr.splitlines(), out_file.exists()

    @pytest.mark.parametrize(
        "argv,cluster,multiplicity",
        [(["--eigenvalue", "0"], "0", 1), (["--point", "0.5,0.5,0", "--eigenvalue", "0"], "0", 30)],
    )
    def test_embed_needs_three_dimensions(self, tmp_path, argv, cluster, multiplicity):
        # rejected before the embedding is formed: one stderr line, exit
        # code 2 and no --out file.  At (1/2, 1/2, 0) the graph falls into
        # 4-cycles, and the dense top cluster has multiplicity 120 / 4
        assert self.embed_h3(tmp_path, argv) == (2, [
            f"coxspec: mesh export needs a 3-dimensional embedding; --eigenvalue {cluster} "
            f"is a cluster of multiplicity {multiplicity}"
        ], False)

    @pytest.mark.parametrize(
        "point,gap",
        [("0.5,0.5,0", r"-1\.3e-15 at x = \[0\.5 0\.5 0\. \]")],
    )
    def test_embed_second_refuses_a_point_off_the_rule(self, tmp_path, point, gap):
        # a boundary point, whose isolation gap is rounding: one stderr
        # line, with no ambiguity warning, exit code 2 and no --out file
        code, lines, written = self.embed_h3(tmp_path, ["--point", point])
        assert (code, len(lines), written) == (2, 1, False)
        assert re.fullmatch(f"coxspec: lambda_1 cluster gap {gap} is not above 1e-12", lines[0])

    def test_embed_second_near_the_h3_corner(self, tmp_path, capsys):
        # an interior point 5e-7 from an H3 corner: its isolation gap 5.6e-8
        # is below CLUSTER_TOL but above ISOLATION_TOL, so the block cluster
        # of multiplicity 3 is exported, with nothing on stderr
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["embed", "--group", "H3", "--point", "0.999999,5e-7,5e-7",
                         "--out", str(tmp_path / "corner.off")])
        out, err = capsys.readouterr()
        assert (code, err) == (0, "")
        assert "eigenvalue 0.999999943616824 multiplicity 3" in out.splitlines()
        assert (tmp_path / "corner.off").is_file()

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

    CURVE_SHA256 = {
        ("A3", "C1"): "b5ab8b718ba9795fb15623fbbe2ebe24d88af1477973b3002d30ef9b32632cda",
        ("A3", "C2"): "c2f733e21c60bcaecf1536c63f597449e3a11d85eacb18c72fe9eb77b8176682",
        ("A3", "C3"): "4a4b949fe9a9f1da938db4b9387fd3ddb819878ba91802442677f8303880796e",
        ("B3", "C1"): "6034581fcf1bd1017bde661b904b43d12c7b7a7f913c06c5af3eb45fd3a1abc9",
        ("B3", "C2"): "9508c4abd0593bcdb8eee561e650aed96870a032791c89fbd561c7cb37145df3",
        ("B3", "C3"): "f4f00db39aebe13b23592806fa338a7b59b47e144f6842236da986b0dd1c5fb9",
        ("H3", "C1"): "f338f7a9ff3d255a11effc8aee178b70ad839ef1d3305f9fe00b65bd23d3d583",
        ("H3", "C2"): "7601609782198138e3b268ac88371f6f99a5d1fe77e86d16bbadd9aa2318ca74",
        ("H3", "C3"): "07761bca2397bd97ff6ce82ab566f2691c17222cd391e8bc3eea963c512bf356",
    }

    @pytest.mark.bit_equal
    @pytest.mark.parametrize("name,curve", sorted(CURVE_SHA256))
    def test_curve_csv_pinned(self, tmp_path, name, curve):
        # the default 50 samples, as written one t per call before the
        # curves were stacked
        out_file = tmp_path / "curve.csv"
        assert main(["curve", "--group", name, "--curve", curve, "--out", str(out_file)]) == 0
        digest = hashlib.sha256(out_file.read_bytes()).hexdigest()
        assert digest == self.CURVE_SHA256[name, curve]

    @pytest.mark.bit_equal
    def test_curve_chunks_write_the_same_bytes(self, tmp_path, monkeypatch, capsys):
        argv = ["curve", "--group", "B3", "--curve", "C3", "--t-min", "1e-200",
                "--t-max", "1e250", "--samples", "23"]
        written = []
        for chunk in (5, 23, cli.CURVE_CHUNK):
            monkeypatch.setattr(cli, "CURVE_CHUNK", chunk)
            out_file = tmp_path / f"chunk-{chunk}.csv"
            assert main([*argv, "--out", str(out_file)]) == 0
            written.append(out_file.read_bytes())
        assert written[0] == written[1] == written[2]
        assert len(written[0].splitlines()) == 24

    def test_curve_bad_row_in_a_later_chunk(self, tmp_path, monkeypatch, capsys):
        # t past 2^1018 only in the last of three chunks of 5
        monkeypatch.setattr(cli, "CURVE_CHUNK", 5)
        out_file = tmp_path / "c1.csv"
        argv = ["curve", "--group", "A3", "--curve", "C1", "--t-min", "1", "--t-max", "1e307",
                "--samples", "12", "--out", str(out_file)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("coxspec: cone coefficients") and err.count("\n") == 1
        assert err.endswith("at row 1; rows count from sample 10\n")
        assert not out_file.exists()

    def test_parser_is_built_once_and_reused(self, capsys, monkeypatch):
        # success, a bad argument, then another verb: the same output and
        # exit codes as from a fresh parser per call
        sequence = [["group", "--group", "A3"], ["group", "--group", "D4"],
                    ["minimize", "--group", "A3"], ["curve", "--group", "A3"]]

        def run(argv):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        reused = [run(argv) for argv in sequence]
        assert cli._parser() is cli._parser()
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        fresh = [run(argv) for argv in sequence]
        assert reused == fresh
        assert [code for code, _, _ in reused] == [0, 2, 0, 2]
        assert "invalid choice: 'D4'" in reused[1][2]
        assert "--curve" in reused[3][2]

    def test_import_builds_no_parser(self):
        code = (
            "import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counting(self, *args, **kwargs):\n"
            "    built.append(kwargs.get('prog'))\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counting\n"
            "import coxspec.cli\n"
            "assert built == [], built\n"
            "coxspec.cli.main(['group', '--group', 'A3'])\n"
            "assert built[0] == 'coxspec', built\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(coxspec.__file__)))
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_sweep_csv(self, tmp_path):
        out_file = tmp_path / "sweep.csv"
        assert main(["sweep", "--group", "A3", "--grid", "4", "--out", str(out_file)]) == 0
        lines = out_file.read_text().splitlines()
        assert lines[0] == "x,y,z,lambda1,mult,len1,len2,len3"
        assert len(lines) == 7

    SWEEP_SHA256 = {
        "A3": "1caffe75b73a67db03ed73e188e3397c32e8dcfc80ef881d13bf71ce7178330d",
        "B3": "a0508c80c95b0863c39be979fd4e16c10a0a3564d56a3d2952b26fc7da0e1ad6",
        "H3": "3ce0d9ee92f6aec8a648e0682296e936e61e76c25b7a62e14d70abd5bc15c4ee",
    }

    @pytest.mark.bit_equal
    @pytest.mark.parametrize("name", sorted(SWEEP_SHA256))
    def test_sweep_csv_pinned(self, tmp_path, name):
        # the grid-24 sweep, 276 rows, as written by a csv.writer row by row
        # with the sweep's rows assembled inside `sweep_lambda1`
        out_file = tmp_path / "sweep.csv"
        assert main(["sweep", "--group", name, "--grid", "24", "--out", str(out_file)]) == 0
        digest = hashlib.sha256(out_file.read_bytes()).hexdigest()
        assert digest == self.SWEEP_SHA256[name]

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


class TestOrbitMemo:
    def test_memo_matches_a_fresh_solve(self, groups):
        for name, group in groups.items():
            fresh = generate_group(coxeter_datum(name))
            for p in limit_points(group) + [fundamental_point(group, [0.2, 0.3, 0.5]).point]:
                pts, index = orbit_points(group, p)
                assert orbit_points(group, p) == (pts, index) and orbit_points(group, p)[0] is pts
                assert not pts.flags.writeable and not index.flags.writeable
                fresh.orbit_memo.clear()
                solved = orbit_points(fresh, p)
                for memo, new in zip((pts, index), solved):
                    assert memo.dtype == new.dtype and memo.tobytes() == new.tobytes()
                with pytest.raises(ValueError, match="read-only"):
                    pts[0, 0] = 0.0

    def test_a_different_point_replaces_the_memo(self, h3):
        p, q = limit_points(h3)[:2]
        first = orbit_points(h3, p)
        assert list(h3.orbit_memo) == [p.tobytes()]
        orbit_points(h3, q)
        assert list(h3.orbit_memo) == [q.tobytes()]
        again = orbit_points(h3, p)
        assert again is not first and list(h3.orbit_memo) == [p.tobytes()]
        assert again[0].tobytes() == first[0].tobytes()

    def test_mesh_reuses_the_limit_orbit(self, groups):
        for group in groups.values():
            for curve in ("C1", "C2", "C3"):
                p, pts, _ = curve_limit(curve, group, 0)
                assert build_orbit_mesh(group, p).vertices is pts

    def test_bad_input_raises_on_every_call(self, h3):
        p = fundamental_point(h3, [1.0, 1e-30, 1e-30]).point
        for _ in range(2):
            with pytest.raises(DomainError, match="finite coordinates"):
                orbit_points(h3, np.array([np.nan, 0.0, 1.0]))
            with pytest.raises(DomainError, match="does not separate"):
                orbit_points(h3, p + 0.75 * ORBIT_TOL * h3.roots[1])


@pytest.fixture
def remove_spy(monkeypatch):
    """os.remove replaced by a recorder that deletes nothing, so that no
    test can unlink a device node."""
    removed = []
    monkeypatch.setattr(os, "remove", removed.append)
    return removed


class TestWriteInPlace:
    SMALL = MeshDocument(vertices=np.eye(3), faces=[[0, 1, 2]])

    @pytest.mark.parametrize("writer", [export_off, export_obj])
    def test_shorter_mesh_over_a_longer_file(self, h3, tmp_path, writer):
        over, fresh = tmp_path / "over", tmp_path / "fresh"
        longer = writer(h3_mesh(h3), over)
        nbytes = writer(self.SMALL, over)
        assert nbytes < longer and nbytes == writer(self.SMALL, fresh)
        assert over.read_bytes() == fresh.read_bytes()

    @pytest.mark.parametrize(
        "argv,longer,shorter",
        [(["sweep", "--group", "A3"], ["--grid", "24"], ["--grid", "8"]),
         (["curve", "--group", "A3", "--curve", "C2"], ["--samples", "50"], ["--samples", "5"])],
        ids=["sweep", "curve"],
    )
    def test_shorter_csv_over_a_longer_file(self, tmp_path, capsys, argv, longer, shorter):
        over, fresh = tmp_path / "over.csv", tmp_path / "fresh.csv"
        assert main([*argv, *longer, "--out", str(over)]) == 0
        size = over.stat().st_size
        assert main([*argv, *shorter, "--out", str(over)]) == 0
        assert main([*argv, *shorter, "--out", str(fresh)]) == 0
        assert over.stat().st_size < size
        assert over.read_bytes() == fresh.read_bytes()

    @pytest.mark.parametrize(
        "argv",
        [["sweep", "--group", "A3", "--grid", "4"], ["curve", "--group", "A3", "--curve", "C1"],
         ["embed", "--group", "A3"]],
        ids=["sweep", "curve", "embed"],
    )
    def test_out_devnull(self, capsys, remove_spy, argv):
        assert main([*argv, "--out", os.devnull]) == 0
        assert remove_spy == []
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)

    def test_export_to_devnull_returns_the_byte_count(self, h3, tmp_path):
        mesh = h3_mesh(h3)
        path = tmp_path / "h3.off"
        assert export_off(mesh, os.devnull) == export_off(mesh, path) == path.stat().st_size

    def test_failed_verb_removes_only_a_regular_file(self, tmp_path, capsys, remove_spy):
        argv = ["sweep", "--group", "A3", "--grid", "1", "--out"]
        assert main([*argv, os.devnull]) == 2
        assert remove_spy == []
        out_file = str(tmp_path / "sweep.csv")
        assert main([*argv, out_file]) == 2
        assert remove_spy == [out_file]

    def test_new_file_mode_follows_the_umask(self, tmp_path, capsys):
        old = os.umask(0o027)
        try:
            with open(tmp_path / "by-open", "w"):
                pass
            export_off(self.SMALL, tmp_path / "by-off")
            export_obj(self.SMALL, tmp_path / "by-obj")
            main(["sweep", "--group", "A3", "--grid", "4", "--out", str(tmp_path / "by-out")])
        finally:
            os.umask(old)
        modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()}
        assert modes == dict.fromkeys(["by-open", "by-off", "by-obj", "by-out"], 0o640)

    @pytest.mark.skipif(not os.path.exists("/dev/fd/1"), reason="needs /dev/fd")
    def test_out_to_a_pipe(self):
        # a pipe cannot be cut (ftruncate fails on it) and does not seek
        src = os.path.dirname(os.path.dirname(os.path.abspath(coxspec.__file__)))
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-m", "coxspec.cli", "curve", "--group", "A3", "--curve", "C1",
             "--samples", "3", "--out", "/dev/fd/1"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0 and proc.stderr == ""
        lines = proc.stdout.splitlines()
        assert lines[0] == "t,x,y,z,lambda1,len1,len2,len3" and len(lines) == 5
        assert lines[-1] == "wrote 3 samples to /dev/fd/1"
