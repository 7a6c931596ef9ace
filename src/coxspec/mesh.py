"""Polyhedral meshes from embeddings and orbits, plus OFF/OBJ export.

Faces of a Cayley embedding are the alternating two-generator cycles of
the Cayley graph; orbit polytopes (degenerate boundary cases) reuse those
cycles through the quotient onto deduplicated orbit points.
"""

import math
from dataclasses import dataclass

import numpy as np

from .coxmaps import orbit_points
from .errors import MeshError
from .outfile import cut_to_length, open_in_place


def _edge_set(faces):
    # every undirected edge (low, high) of the face cycles, in one pass
    return {(a, b) if a < b else (b, a) for f in faces for a, b in zip(f, f[1:] + f[:1])}


@dataclass
class MeshDocument:
    vertices: np.ndarray          # (n, 3)
    faces: list                   # lists of vertex indices (cycles)

    @property
    def edges(self):
        return sorted(_edge_set(self.faces))

    def euler_characteristic(self):
        return len(self.vertices) - len(_edge_set(self.faces)) + len(self.faces)


def cayley_faces(group):
    """Alternating-generator cycles of the Cayley graph as lists of
    vertices, the cycles of each generator pair in turn: the rows of
    `ReflectionGroup.face_cycles`, computed once per group.  Cycle length
    is twice the order of the generator product."""
    return [cycle for cycles in group.face_cycles for cycle in cycles.tolist()]


def build_cayley_mesh(pts, group):
    """Mesh of a faithful 3-dimensional Cayley embedding `pts`, (n, 3)."""
    if pts.shape[1] != 3:
        raise MeshError("mesh export needs a 3-dimensional embedding")
    return MeshDocument(vertices=pts.copy(), faces=cayley_faces(group))


def _collapse_cycle(cycle):
    # remove cyclically-consecutive duplicates
    out = []
    for v in cycle:
        if not out or v != out[-1]:
            out.append(v)
    if len(out) > 1 and out[0] == out[-1]:
        out.pop()
    return out


def build_orbit_mesh(group, point):
    """Polytope of a group orbit: Cayley faces projected through the
    orbit quotient, with degenerate cycles dropped.  The vertices are
    `orbit_points`' read-only array, taken from its memo right after
    `curve_limit` or `boundary_limit` of the same point."""
    pts, index = orbit_points(group, point)
    faces = {}
    for cycles in group.face_cycles:
        for cycle in index[cycles].tolist():
            projected = _collapse_cycle(cycle)
            if len(projected) >= 3 and len(set(projected)) == len(projected):
                faces.setdefault(frozenset(projected), projected)
    return MeshDocument(vertices=pts, faces=list(faces.values()))


def vertex_configuration(mesh, vertex=0):
    """Cyclic sequence of face sizes around a vertex, canonicalized to
    the lexicographically smallest rotation over both orientations."""
    if not 0 <= vertex < len(mesh.vertices):
        raise MeshError(f"vertex {vertex} is outside range(0, {len(mesh.vertices)})")
    v = mesh.vertices[vertex]
    incident = [f for f in mesh.faces if vertex in f]
    if not incident:
        raise MeshError("vertex has no incident faces")
    # order faces by the angle of their centers in the tangent plane at v
    normal = v / np.linalg.norm(v)
    ref = np.eye(3)[np.argmin(np.abs(normal))]
    u1 = np.cross(normal, ref)
    u1 /= np.linalg.norm(u1)
    u2 = np.cross(normal, u1)
    angles = []
    for f in incident:
        c = mesh.vertices[f].mean(axis=0) - v
        angles.append(math.atan2(float(c @ u2), float(c @ u1)))
    sizes = [len(f) for _, f in sorted(zip(angles, incident), key=lambda p: p[0])]
    candidates = []
    for seq in (sizes, sizes[::-1]):
        for r in range(len(seq)):
            candidates.append(tuple(seq[r:] + seq[:r]))
    return min(candidates)


def _vertex_lines(vertices, prefix=""):
    # 17 significant digits, so a parsed file re-exports byte for byte
    line = prefix + " ".join(["%.17g"] * vertices.shape[1])
    return [line % tuple(v) for v in vertices.tolist()]


def _write(destination, lines, kind):
    data = ("\n".join(lines) + "\n").encode()
    try:
        with open_in_place(destination) as fh:
            fh.write(data)
            cut_to_length(fh)
    except OSError as exc:
        raise MeshError(f"cannot write {kind} file {destination}: {exc}") from exc
    return len(data)


def export_off(mesh, destination):
    """Write the mesh in OFF text form; byte-exact for identical input."""
    lines = ["OFF", f"{len(mesh.vertices)} {len(mesh.faces)} {len(_edge_set(mesh.faces))}"]
    lines += _vertex_lines(mesh.vertices)
    lines += [" ".join(map(str, [len(f), *f])) for f in mesh.faces]
    return _write(destination, lines, "OFF")


def parse_off(path):
    """Read an ASCII OFF file; its counts must match its contents exactly,
    coordinates must be finite, faces must have 3 or more distinct vertices."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            tokens = fh.read().split()
    except (OSError, UnicodeDecodeError) as exc:
        raise MeshError(f"cannot read OFF file {path}: {exc}") from exc
    if not tokens or tokens[0] != "OFF":
        raise MeshError(f"{path}: missing OFF header")
    try:
        nv, nf, _ = int(tokens[1]), int(tokens[2]), int(tokens[3])
        if nv < 0 or nf < 0:
            raise ValueError("negative count")
        pos = 4
        flat = [float(t) for t in tokens[pos : pos + 3 * nv]]
        vertices = np.array(flat).reshape(nv, 3)
        if not np.isfinite(vertices).all():
            raise ValueError("non-finite coordinate")
        pos += 3 * nv
        faces = []
        for _ in range(nf):
            n = int(tokens[pos])
            face = [int(t) for t in tokens[pos + 1 : pos + 1 + n]]
            if len(face) != n or not all(0 <= i < nv for i in face):
                raise ValueError("face is truncated or names a missing vertex")
            faces.append(face)
            pos += 1 + n
    except (IndexError, ValueError) as exc:
        raise MeshError(f"{path}: truncated or malformed OFF file ({exc})") from None
    if pos != len(tokens):
        raise MeshError(f"{path}: {len(tokens) - pos} tokens beyond the declared counts")
    for i, face in enumerate(faces):
        if len(face) < 3 or len(set(face)) != len(face):
            raise MeshError(f"{path}: face {i} {face} does not have 3 or more distinct vertices")
    return MeshDocument(vertices=vertices, faces=faces)


def export_obj(mesh, destination):
    """OBJ mirror of the OFF writer (v/f records, 1-based indices)."""
    lines = _vertex_lines(mesh.vertices, "v ")
    lines += ["f " + " ".join(str(i + 1) for i in f) for f in mesh.faces]
    return _write(destination, lines, "OBJ")
