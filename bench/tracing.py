"""Spans around qdegree's public functions, installed from the benchmark's
side for the traced run only.

A span is (id, parent, name, start, end), kept in memory and written out at
the end of the run.  A layer's self time is its spans' duration minus the
time its child spans cover.  Bookkeeping that costs more than a ``len``
(the pole order of each residue) runs inside a ``trace.aux`` span, so that
it is subtracted from the layer that triggered it and reported nowhere.
Counters run after the wrapped call returns.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field


class Tracer:
    """In-memory span recorder with named counters."""

    def __init__(self):
        self.spans: list[list] = []  # [id, parent, name, start, end]
        self.counters: Counter = Counter()
        self.chain_residues = 0  # residues taken so far in the open iterated_residue
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append([sid, self._stack[-1] if self._stack else -1, name, 0.0, 0.0])
        self._stack.append(sid)
        self.spans[sid][3] = time.perf_counter()
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][4] = time.perf_counter()
        self._stack.pop()

    def add(self, key: str, n: float = 1) -> None:
        self.counters[key] += n


# -- counters ---------------------------------------------------------------

def _count_mu(tr: Tracer, args, kwargs, out) -> None:
    tr.add("mu.binomials", len(out.binomials))


def _count_residue(tr: Tracer, args, kwargs, out) -> None:
    f, name, point = args[:3]
    terms = f.terms if hasattr(f, "terms") else (f,)
    aux = tr.open("trace.aux")
    try:
        for term in terms:
            tr.add("resdata.pole_attempts")
            tr.add("resdata.residue_in_binomials", len(term.binomials))
            if term.pole_order(name, point) == 1:
                tr.add("resdata.simple_poles")
    finally:
        tr.close(aux)


def _count_build(tr: Tracer, args, kwargs, out) -> None:
    binomials = kwargs.get("binomials", args[3] if len(args) > 3 else ())
    tr.add("qform.build_binomials",
           len(binomials) if hasattr(binomials, "__len__") else len(out.binomials))


def _count_grid(tr: Tracer, args, kwargs, out) -> None:
    """Computed from the node arrays' size and the evaluated form's terms."""
    f = args[0]
    points = out.size
    terms = f.terms if hasattr(f, "terms") else (f,)
    tr.add("contour.grid_points", points)
    tr.add("contour.exp_evals", points * sum(1 + len(t.binomials) for t in terms))


def _residue_span_name(tr: Tracer) -> str:
    tr.chain_residues += 1
    return "resdata.inner" if tr.chain_residues == 1 else "resdata.outer"


def _chain_span_name(tr: Tracer) -> str:
    tr.chain_residues = 0
    return "resdata.chain"


@dataclass(frozen=True)
class Layer:
    span: object          # span name, or a function of the tracer giving it
    module: str
    path: str             # attribute path inside the module
    count: object = None  # counter run after each call
    timed: bool = True    # False: count only, no span
    home_only: bool = False  # patch only the defining module's binding


LAYERS = (
    Layer("model.validate", "qdegree.model", "validate"),
    Layer("coords.generic_weight", "qdegree.coords", "generic_weight"),
    Layer("mu.mu_on_z", "qdegree.mu", "mu_on_z", _count_mu),
    Layer(_chain_span_name, "qdegree.resdata", "iterated_residue"),
    # Only the residue chain's binding: contour's own off-chain residues stay
    # in contour.rhs.
    Layer(_residue_span_name, "qdegree.resdata", "residue", _count_residue, home_only=True),
    Layer("qform.build", "qdegree.qform", "FactoredForm.build", _count_build),
    Layer("qform.eval_exact", "qdegree.qform", "FactoredForm.eval_exact"),
    Layer("degree.gamma", "qdegree.degree", "gamma_factor"),
    Layer("degree.closed", "qdegree.degree", "closed_form_degree"),
    Layer("degree.assemble", "qdegree.degree", "assemble_degree"),
    Layer("contour.lhs", "qdegree.contour", "lhs_contour"),
    Layer("contour.rhs", "qdegree.contour", "residue_terms"),
    Layer("contour.grid", "qdegree.contour", "_eval_grid", _count_grid, timed=False),
    Layer("cli.main", "qdegree.cli", "main.main"),
)

_THEOREM_LAYERS = {"model.validate", "coords.generic_weight", "mu.mu_on_z", "resdata.chain",
                   "resdata.inner", "resdata.outer", "qform.build", "degree.gamma",
                   "degree.closed", "degree.assemble"}

# Layers that must record calls on each workload.
EXPECTED = {
    "grid": _THEOREM_LAYERS,
    "tower": _THEOREM_LAYERS,
    "contour": {"model.validate", "coords.generic_weight", "mu.mu_on_z", "resdata.chain",
                "resdata.inner", "resdata.outer", "qform.build", "contour.lhs",
                "contour.rhs", "contour.grid"},
    "degree": {"cli.main", "model.validate", "degree.gamma", "degree.closed", "qform.build",
               "qform.eval_exact"},
}


def _layer_label(layer: Layer) -> str:
    return layer.span if isinstance(layer.span, str) else f"{layer.module}.{layer.path}"


def _wrap(tr: Tracer, layer: Layer, fn):
    span, count, timed = layer.span, layer.count, layer.timed

    def wrapper(*args, **kwargs):
        if not timed:
            out = fn(*args, **kwargs)
        else:
            sid = tr.open(span if isinstance(span, str) else span(tr))
            try:
                out = fn(*args, **kwargs)
            finally:
                tr.close(sid)
        if count is not None:
            count(tr, args, kwargs, out)
        return out

    return wrapper


class Instrumentation:
    """Installs and removes the wrappers of LAYERS.

    A layer whose module or attribute no longer exists is recorded in
    ``missing`` and skipped; it never stops the run.
    """

    def __init__(self):
        self.missing: list[str] = []
        self._undo: list = []

    def install(self, tr: Tracer) -> None:
        self.missing = []
        for layer in LAYERS:
            try:
                self._install(tr, layer)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{_layer_label(layer)} ({layer.module}.{layer.path})")

    def _install(self, tr: Tracer, layer: Layer) -> None:
        module = importlib.import_module(layer.module)
        *owner_path, leaf = layer.path.split(".")
        owner = module
        for part in owner_path:
            owner = getattr(owner, part)
        own = vars(owner)
        if owner is module:
            raw = own[leaf]
            homes = [module] if layer.home_only else [
                m for name, m in list(sys.modules.items())
                if name.startswith("qdegree") and m is not None]
            for home in homes:
                for name, value in list(vars(home).items()):
                    if value is raw:
                        setattr(home, name, _wrap(tr, layer, raw))
                        self._undo.append((home, name, raw))
        elif leaf in own:  # a function or staticmethod in a class body
            raw = own[leaf]
            if isinstance(raw, staticmethod):
                setattr(owner, leaf, staticmethod(_wrap(tr, layer, raw.__func__)))
            else:
                setattr(owner, leaf, _wrap(tr, layer, raw))
            self._undo.append((owner, leaf, raw))
        else:  # a bound method, shadowed by an instance attribute
            setattr(owner, leaf, _wrap(tr, layer, getattr(owner, leaf)))
            self._undo.append((owner, leaf, None))

    def uninstall(self) -> None:
        for owner, name, raw in reversed(self._undo):
            if raw is None:
                delattr(owner, name)
            else:
                setattr(owner, name, raw)
        self._undo = []


@dataclass
class RoundLayers:
    """Per-layer totals of one traced round."""

    calls: Counter = field(default_factory=Counter)
    total_s: dict = field(default_factory=lambda: defaultdict(float))
    self_s: dict = field(default_factory=lambda: defaultdict(float))
    counters: Counter = field(default_factory=Counter)


def round_layers(tr: Tracer, first_span: int) -> RoundLayers:
    """Totals over the spans recorded since ``first_span``; takes the counters."""
    spans = tr.spans[first_span:]
    covered = defaultdict(float)
    for _, parent, _, start, end in spans:
        if parent >= 0:
            covered[parent] += end - start
    out = RoundLayers(counters=tr.counters)
    tr.counters = Counter()
    for sid, _, name, start, end in spans:
        out.calls[name] += 1
        out.total_s[name] += end - start
        out.self_s[name] += end - start - covered[sid]
    return out


def layer_metrics(r: RoundLayers) -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json for one traced round."""
    def ms(name: str) -> float:
        return 1e3 * r.self_s.get(name, 0.0)

    c = r.counters
    attempts = c["resdata.pole_attempts"]
    return {
        "model.validate_ms": ms("model.validate"),
        "coords.generic_weight_ms": ms("coords.generic_weight"),
        "mu.mu_on_z_ms": ms("mu.mu_on_z"),
        "mu.binomials": c["mu.binomials"],
        "resdata.chain_ms": ms("resdata.chain"),
        "resdata.residue_calls": r.calls["resdata.inner"] + r.calls["resdata.outer"],
        "resdata.simple_poles": c["resdata.simple_poles"] / attempts if attempts else 0.0,
        "resdata.inner_ms": ms("resdata.inner"),
        "resdata.outer_ms": ms("resdata.outer"),
        "resdata.residue_in_binomials": c["resdata.residue_in_binomials"],
        "qform.build_calls": r.calls["qform.build"],
        "qform.build_binomials": c["qform.build_binomials"],
        "qform.build_ms": ms("qform.build"),
        "qform.eval_exact_ms": ms("qform.eval_exact"),
        "degree.gamma_ms": ms("degree.gamma"),
        "degree.gamma_calls": r.calls["degree.gamma"],
        "degree.closed_ms": ms("degree.closed"),
        "degree.assemble_ms": ms("degree.assemble"),
        "contour.lhs_ms": ms("contour.lhs"),
        "contour.rhs_ms": ms("contour.rhs"),
        "contour.grid_points": c["contour.grid_points"],
        "contour.exp_evals": c["contour.exp_evals"],
        "cli.main_ms": ms("cli.main"),
        "cli.json_bytes": c["cli.json_bytes"],
    }


def silent_layers(workload: str, rounds: list[RoundLayers]) -> list[str]:
    """Expected layers that recorded no call in any traced round."""
    seen = set()
    for r in rounds:
        seen.update(name for name, n in r.calls.items() if n)
        if r.counters["contour.grid_points"]:
            seen.add("contour.grid")
    return sorted(EXPECTED[workload] - seen)


def layer_table(rounds: list[RoundLayers]) -> str:
    """Median per-round calls, total and self time of every span name."""
    names = sorted({n for r in rounds for n in r.calls})
    lines = [f"{'layer':24} {'calls':>8} {'total_ms':>11} {'self_ms':>11}"]
    for n in names:
        calls = statistics.median(r.calls[n] for r in rounds)
        total = statistics.median(1e3 * r.total_s.get(n, 0.0) for r in rounds)
        own = statistics.median(1e3 * r.self_s.get(n, 0.0) for r in rounds)
        lines.append(f"{n:24} {calls:8.0f} {total:11.2f} {own:11.2f}")
    return "\n".join(lines)
