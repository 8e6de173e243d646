"""Span tracing of splitcayley by rebinding module and class attributes.

Only a traced pass installs the wrappers; `Tracer.uninstall` puts every
original object back, and `traced_bindings` names any binding that still
holds a wrapper.  Spans stay in memory as flat arrays
(name, job, start, end, parent) and are aggregated or written out at the end.
"""

from __future__ import annotations

import functools
import gzip
import time
from array import array

from splitcayley import cli, galois, hermitian, hexagon, projective, quadric, unitary

MODULES = (galois, projective, hermitian, unitary, hexagon, quadric, cli)

# (owner, attribute, metric name).  An owner that is a class wraps a method;
# `__init__` stands for the constructor and is named after the class.
TARGETS = (
    (galois.QuadraticField, "for_q", "galois.QuadraticField.for_q"),
    (hermitian.HermitianSurface, "__init__", "hermitian.HermitianSurface"),
    (unitary.UnitaryAction, "__init__", "unitary.UnitaryAction"),
    (unitary.UnitaryAction, "classes", "unitary.UnitaryAction.classes"),
    (unitary.UnitaryAction, "norm_of", "unitary.UnitaryAction.norm_of"),
    (unitary, "verify_class_covering", "unitary.verify_class_covering"),
    (hexagon, "build_hexagon", "hexagon.build_hexagon"),
    (hexagon, "certify_generalized_polygon",
     "hexagon.certify_generalized_polygon"),
    (projective, "rref", "projective.rref"),
    (projective, "point_in_subspace", "projective.point_in_subspace"),
    (projective, "subspace_points", "projective.subspace_points"),
    (projective, "nullspace", "projective.nullspace"),
    (projective, "normalize_point", "projective.normalize_point"),
    (quadric.HyperbolicSpace, "__init__", "quadric.HyperbolicSpace"),
    (quadric.ParabolicQuadric, "__init__", "quadric.ParabolicQuadric"),
    (quadric.BcsMap, "__init__", "quadric.BcsMap"),
    (quadric.BcsMap, "parse_line_set", "quadric.BcsMap.parse_line_set"),
    (quadric.BcsMap, "inverse_affine_line",
     "quadric.BcsMap.inverse_affine_line"),
    (quadric.BcsMap, "verify_dictionary", "quadric.BcsMap.verify_dictionary"),
    (quadric, "certify_split_cayley", "quadric.certify_split_cayley"),
    (quadric, "classify_line_set", "quadric.classify_line_set"),
    (quadric, "concurrency_components", "quadric.concurrency_components"),
    (quadric, "hermitian_spread_check", "quadric.hermitian_spread_check"),
    (quadric, "regulus", "quadric.regulus"),
    (quadric, "line_orbit_census", "quadric.line_orbit_census"),
    (cli, "main", "cli.main"),
)

NAMES = tuple(name for _, _, name in TARGETS)


def _bindings(owner, attr):
    """Every (namespace owner, attribute) that holds the target object.

    A module-level function is also rebound in each module that imported it
    by name (e.g. `rref` in quadric, hermitian and unitary), so calls made
    through those bindings are traced too.
    """
    original = vars(owner)[attr]
    if isinstance(owner, type):
        return [(owner, attr, original)]
    return [(module, name, value)
            for module in MODULES
            for name, value in vars(module).items()
            if value is original]


def _is_wrapper(value) -> bool:
    return getattr(getattr(value, "__func__", value), "bench_traced", False)


def traced_bindings() -> list:
    """Every binding in the traced modules and classes that holds a wrapper."""
    holders = list(MODULES) + [o for o, _, _ in TARGETS if isinstance(o, type)]
    return sorted({f"{h.__module__ if isinstance(h, type) else h.__name__}."
                   f"{h.__name__ + '.' if isinstance(h, type) else ''}{name}"
                   for h in holders for name, value in vars(h).items()
                   if _is_wrapper(value)})


class Tracer:
    """Records one span per call of each target while installed."""

    def __init__(self):
        self.jobs = ["untagged"]  # spans before the first set_job
        self.job = 0
        self.name_ids = array("H")
        self.job_ids = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.selfs = array("d")
        self._stack = []          # open span indices
        self._child_time = []     # time covered by children of each open span
        self._installed = []

    def set_job(self, label: str) -> None:
        self.jobs.append(label)
        self.job = len(self.jobs) - 1

    # -- install / uninstall -------------------------------------------------

    def _wrap(self, fn, name_id):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.starts)
            tracer.name_ids.append(name_id)
            tracer.job_ids.append(tracer.job)
            tracer.parents.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.ends.append(0.0)
            tracer.selfs.append(0.0)
            tracer._stack.append(idx)
            tracer._child_time.append(0.0)
            start = clock()
            tracer.starts.append(start)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                tracer._stack.pop()
                children = tracer._child_time.pop()
                duration = end - start
                tracer.ends[idx] = end
                tracer.selfs[idx] = duration - children
                if tracer._child_time:
                    tracer._child_time[-1] += duration

        traced.bench_traced = True
        return traced

    def install(self) -> None:
        for name_id, (owner, attr, _) in enumerate(TARGETS):
            for holder, hname, original in _bindings(owner, attr):
                if isinstance(original, classmethod):
                    wrapper = classmethod(self._wrap(original.__func__, name_id))
                else:
                    wrapper = self._wrap(original, name_id)
                setattr(holder, hname, wrapper)
                self._installed.append((holder, hname, original))

    def uninstall(self) -> None:
        for holder, hname, original in reversed(self._installed):
            setattr(holder, hname, original)
        self._installed.clear()

    # -- aggregation ---------------------------------------------------------

    def calls_and_self(self):
        """name -> [calls, self seconds] over all spans."""
        out = {name: [0, 0.0] for name in NAMES}
        for name_id, self_s in zip(self.name_ids, self.selfs):
            entry = out[NAMES[name_id]]
            entry[0] += 1
            entry[1] += self_s
        return out

    def calls_by_phase(self, phase_of):
        """(phase, name) -> calls, with `phase_of` mapping a job label."""
        phases = [phase_of(label) for label in self.jobs]
        out = {}
        for name_id, job in zip(self.name_ids, self.job_ids):
            key = (phases[job], NAMES[name_id])
            out[key] = out.get(key, 0) + 1
        return out

    def covered_time(self) -> float:
        """Total duration of the top-level spans (no two of them overlap)."""
        return sum(end - start for start, end, parent
                   in zip(self.starts, self.ends, self.parents) if parent < 0)

    def durations(self, name: str, phases, phase_of):
        """Inclusive durations of one target's spans in the given phases."""
        name_id = NAMES.index(name)
        keep = {i for i, label in enumerate(self.jobs)
                if phase_of(label) in phases}
        return [end - start for nid, job, start, end
                in zip(self.name_ids, self.job_ids, self.starts, self.ends)
                if nid == name_id and job in keep]

    def write(self, path) -> None:
        """Spans as gzip'd TSV: job, name, start, end, parent index."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("job\tname\tstart_s\tend_s\tparent\n")
            jobs, t0 = self.jobs, (self.starts[0] if self.starts else 0.0)
            for nid, job, start, end, parent in zip(
                    self.name_ids, self.job_ids, self.starts, self.ends,
                    self.parents):
                fh.write(f"{jobs[job]}\t{NAMES[nid]}\t{start - t0:.9f}\t"
                         f"{end - t0:.9f}\t{parent}\n")
