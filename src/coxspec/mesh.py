"""Polyhedral meshes from embeddings and orbits, plus OFF/OBJ export.

Faces of a Cayley embedding are the alternating two-generator cycles of
the Cayley graph; orbit polytopes (degenerate boundary cases) reuse those
cycles through the quotient onto deduplicated orbit points.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .coxmaps import orbit_points
from .errors import CoxspecError


class MeshError(CoxspecError):
    pass


@dataclass
class MeshDocument:
    vertices: np.ndarray          # (n, 3)
    faces: list                   # lists of vertex indices (cycles)
    metadata: dict = field(default_factory=dict)

    @property
    def edges(self):
        out = set()
        for face in self.faces:
            for a, b in zip(face, face[1:] + face[:1]):
                out.add((min(a, b), max(a, b)))
        return sorted(out)

    def euler_characteristic(self):
        return len(self.vertices) - len(self.edges) + len(self.faces)


def cayley_faces(graph):
    """Alternating-generator cycles of the Cayley graph, one list of
    vertex cycles per generator pair; cycle length is twice the order of
    the generator product."""
    faces = []
    for a in range(graph.n_classes):
        for b in range(a + 1, graph.n_classes):
            seen = set()
            for start in range(graph.n_vertices):
                if start in seen:
                    continue
                cycle = []
                v, gen = start, a
                while True:
                    cycle.append(v)
                    v = int(graph.successors[v, gen])
                    gen = b if gen == a else a
                    if v == start:
                        break
                expected = 2 * int(graph.group.datum.orders[a, b])
                if len(cycle) != expected:
                    raise MeshError(
                        f"face cycle for pair ({a},{b}) has length {len(cycle)}, "
                        f"expected {expected}"
                    )
                seen.update(cycle)
                faces.append(cycle)
    return faces


def build_cayley_mesh(embedding, graph, metadata=None):
    """Mesh of a faithful 3-dimensional Cayley embedding."""
    if embedding.points.shape[1] != 3:
        raise MeshError("mesh export needs a 3-dimensional embedding")
    return MeshDocument(
        vertices=embedding.points.copy(),
        faces=cayley_faces(graph),
        metadata=dict(metadata or {}),
    )


def _collapse_cycle(cycle):
    # remove cyclically-consecutive duplicates
    out = []
    for v in cycle:
        if not out or v != out[-1]:
            out.append(v)
    if len(out) > 1 and out[0] == out[-1]:
        out.pop()
    return out


def build_orbit_mesh(group, point, metadata=None):
    """Polytope of a group orbit: Cayley faces projected through the
    orbit quotient, with degenerate cycles dropped."""
    from .coxeter import cayley_graph

    graph = cayley_graph(group)
    pts, index = orbit_points(group, point)
    faces = {}
    for cycle in cayley_faces(graph):
        projected = _collapse_cycle([int(index[v]) for v in cycle])
        if len(projected) >= 3 and len(set(projected)) == len(projected):
            faces.setdefault(frozenset(projected), projected)
    return MeshDocument(
        vertices=pts, faces=list(faces.values()), metadata=dict(metadata or {})
    )


def vertex_configuration(mesh, vertex=0):
    """Cyclic sequence of face sizes around a vertex, canonicalized to
    the lexicographically smallest rotation over both orientations."""
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


def _fmt(x):
    return f"{x:.17g}"


def export_off(mesh, destination):
    """Write the mesh in OFF text form; byte-exact for identical input."""
    lines = ["OFF", f"{len(mesh.vertices)} {len(mesh.faces)} {len(mesh.edges)}"]
    for v in mesh.vertices:
        lines.append(" ".join(_fmt(c) for c in v))
    for f in mesh.faces:
        lines.append(" ".join(str(i) for i in [len(f), *f]))
    data = ("\n".join(lines) + "\n").encode()
    try:
        with open(destination, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise MeshError(f"cannot write OFF file {destination}: {exc}") from exc
    return len(data)


def parse_off(path):
    """Read an OFF file; its counts must match its contents exactly."""
    with open(path, "r", encoding="ascii") as fh:
        tokens = fh.read().split()
    if not tokens or tokens[0] != "OFF":
        raise MeshError(f"{path}: missing OFF header")
    try:
        nv, nf, _ = int(tokens[1]), int(tokens[2]), int(tokens[3])
        if nv < 0 or nf < 0:
            raise ValueError("negative count")
        pos = 4
        flat = [float(t) for t in tokens[pos : pos + 3 * nv]]
        vertices = np.array(flat).reshape(nv, 3)
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
    return MeshDocument(vertices=vertices, faces=faces)


def export_obj(mesh, destination):
    """OBJ mirror of the OFF writer (v/f records, 1-based indices)."""
    lines = []
    for v in mesh.vertices:
        lines.append("v " + " ".join(_fmt(c) for c in v))
    for f in mesh.faces:
        lines.append("f " + " ".join(str(i + 1) for i in f))
    data = ("\n".join(lines) + "\n").encode()
    try:
        with open(destination, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise MeshError(f"cannot write OBJ file {destination}: {exc}") from exc
    return len(data)
