"""Span tracing installed from outside the package.

Wrappers replace public qsslab functions and ``PauliOperator`` methods for
the duration of a traced round and are removed afterwards, so untraced
rounds run the unmodified code. A function is replaced under every name a
qsslab module binds it to (``cli`` and ``audit`` import ``deal`` and friends
by name), and ``numpy.linalg.eigvalsh`` is replaced on numpy itself, since
the package reaches it by attribute wherever it calls it.

Each call records one span: id, parent span, job id, name, start, end,
terms in, terms out, the largest operator it touched, and an optional extra
dict. Spans stay in memory; the caller writes them out after the run.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

#: relative coefficient tolerance for calling two branch operators equal
#: (same key set, max |c_a - c_b| <= EQUAL_REL_TOL * max |c|)
EQUAL_REL_TOL = 1e-12

PAULI_OPS = (
    "conjugate_clifford",
    "project_z",
    "reset_to_mixed",
    "scaled",
    "partial_trace",
    "tensor",
    "add",
    "to_dense",
    "from_dense",
)
MODULES = ("cli", "protocol", "paulis", "dense", "circuits", "audit")


def _none(args, kwargs, result):
    return 0, 0, 0


def _unary(args, kwargs, result):
    n_in = args[0].num_terms
    n_out = result.num_terms
    return n_in, n_out, max(n_in, n_out)


def _project(args, kwargs, result):
    n_in = args[0].num_terms
    n_out = result[1].num_terms
    return n_in, n_out, max(n_in, n_out)


def _tensor(args, kwargs, result):
    a, b = args[0].num_terms, args[1].num_terms
    n_out = result.num_terms
    return a * b, n_out, max(a, b, n_out)


def _add(args, kwargs, result):
    a, b = args[0].num_terms, args[1].num_terms
    n_out = result.num_terms
    return a + b, n_out, max(a, b, n_out)


def _to_dense(args, kwargs, result):
    n_in = args[0].num_terms
    return n_in, 0, n_in


def _from_dense(args, kwargs, result):
    # words examined: a 2^N x 2^N matrix has 4^N Pauli coordinates
    return int(np.asarray(args[0]).size), result.num_terms, result.num_terms


def _from_terms(args, kwargs, result):
    return 0, result.num_terms, result.num_terms


def _deal(args, kwargs, result):
    return 0, result.state.num_terms, 0


def _shared_in(args, kwargs, result):
    return args[0].state.num_terms, result.num_terms, 0


def distinct_count(ops) -> int:
    """Distinct operators among ``ops``: equal key sets and coefficients
    within EQUAL_REL_TOL of the larger operator's biggest |c|. Hashing only
    buckets candidates; equality is always decided on the coefficients."""
    groups: dict[frozenset, tuple[list, list[np.ndarray]]] = {}
    count = 0
    for op in ops:
        keys = frozenset(op.terms)
        order, reps = groups.setdefault(keys, (sorted(keys), []))
        vec = np.array([op.terms[k] for k in order], dtype=complex)
        scale = float(np.max(np.abs(vec))) if vec.size else 0.0
        for rep in reps:
            if not vec.size:
                break
            tol = EQUAL_REL_TOL * max(scale, float(np.max(np.abs(rep))))
            if float(np.max(np.abs(vec - rep))) <= tol:
                break
        else:
            reps.append(vec)
            count += 1
    return count


def _evaluate(args, kwargs, result):
    branches, _ = result
    n_out = sum(br.state.num_terms for br in branches)
    extra = {
        "branches": len(branches),
        "distinct_states": distinct_count([br.state for br in branches]),
    }
    return args[0].state.num_terms, n_out, 0, extra


@dataclass(frozen=True)
class Target:
    module: str  # qsslab submodule that defines it, or "numpy.linalg"
    attr: str
    name: str  # span name, "<layer>.<op>"
    # (args, kwargs, result) -> (terms in, terms out, peak terms[, extra dict])
    sizes: Callable = _none
    method: bool = False  # PauliOperator attribute rather than module function


TARGETS = (
    Target("cli", "main", "cli.main"),
    Target("protocol", "load_secret", "protocol.load_secret"),
    Target("protocol", "deal", "protocol.deal", _deal),
    Target("protocol", "evaluate", "protocol.evaluate", _evaluate),
    Target("protocol", "reconstruct", "protocol.reconstruct", _shared_in),
    Target("protocol", "logical_unitary", "protocol.logical_unitary"),
    Target("audit", "secret_independence_check", "audit.secret_independence_check"),
    Target("audit", "parity_regime_check", "audit.parity_regime_check"),
    Target("audit", "adversary_view", "audit.adversary_view", _shared_in),
    Target("audit", "distinguishability", "audit.distinguishability"),
    Target("dense", "build_unitary", "dense.build_unitary"),
    Target("dense", "trace_distance", "dense.trace_distance"),
    Target("dense", "run_circuit", "dense.run_circuit"),
    Target("dense", "partial_trace_dense", "dense.partial_trace_dense"),
    Target("numpy.linalg", "eigvalsh", "dense.eigvalsh"),
    Target("circuits", "transversal_expand", "circuits.transversal_expand"),
    Target("circuits", "toffoli_gadget", "circuits.toffoli_gadget"),
    Target("circuits", "ladder_circuit", "circuits.ladder_circuit"),
    Target("circuits", "expected_ladder_pauli", "circuits.expected_ladder_pauli"),
    Target("paulis", "conjugate_clifford", "paulis.conjugate_clifford", _unary, True),
    Target("paulis", "project_z", "paulis.project_z", _project, True),
    Target("paulis", "reset_to_mixed", "paulis.reset_to_mixed", _unary, True),
    Target("paulis", "scaled", "paulis.scaled", _unary, True),
    Target("paulis", "partial_trace", "paulis.partial_trace", _unary, True),
    Target("paulis", "tensor", "paulis.tensor", _tensor, True),
    Target("paulis", "add", "paulis.add", _add, True),
    Target("paulis", "to_dense", "paulis.to_dense", _to_dense, True),
    Target("paulis", "from_dense", "paulis.from_dense", _from_dense, True),
    Target("paulis", "from_terms", "paulis.from_terms", _from_terms, True),
)


@dataclass
class Tracer:
    """Collects spans while installed; ``job`` tags the spans of one job."""

    spans: list = field(default_factory=list)
    job: int = -1
    _stack: list = field(default_factory=list)
    _undo: list = field(default_factory=list)

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        sizes = target.sizes
        name = target.name

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = clock()
                stack.pop()
                spans[sid] = (sid, parent, self.job, name, t0, t1, 0, 0, 0, {"raised": True})
                raise
            t1 = clock()
            stack.pop()
            measured = sizes(args, kwargs, result)
            extra = measured[3] if len(measured) > 3 else None
            spans[sid] = (sid, parent, self.job, name, t0, t1, *measured[:3], extra)
            return result

        return wrapper

    def install(self) -> None:
        """Replace every target under each name qsslab modules bind it to."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        self.spans.clear()
        self._stack.clear()
        modules = [
            mod for key, mod in sys.modules.items()
            if key == "qsslab" or key.startswith("qsslab.")
        ]
        pauli_cls = sys.modules["qsslab.paulis"].PauliOperator
        for target in TARGETS:
            if target.method:
                raw = pauli_cls.__dict__[target.attr]
                if isinstance(raw, staticmethod):
                    new = staticmethod(self._wrap(target, raw.__func__))
                else:
                    new = self._wrap(target, raw)
                self._undo.append((pauli_cls, target.attr, raw))
                setattr(pauli_cls, target.attr, new)
                continue
            if target.module == "numpy.linalg":
                home, owners = np.linalg, [np.linalg]
            else:
                home, owners = sys.modules[f"qsslab.{target.module}"], modules
            fn = getattr(home, target.attr)
            wrapped = self._wrap(target, fn)
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    if value is fn:
                        self._undo.append((owner, attr, fn))
                        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def _self_times(spans) -> list[float]:
    """Duration of each span minus the durations of its direct children
    (children nest inside their parent, so they never overlap each other)."""
    own = [s[5] - s[4] for s in spans]
    for s in spans:
        if s[1] >= 0:
            own[s[1]] -= s[5] - s[4]
    return own


def summarize(spans) -> dict:
    """Per-name totals of one traced round: calls, inclusive and self time,
    terms in and out, peak terms, extras summed, plus deals under audits."""
    own = _self_times(spans)
    names = [s[3] for s in spans]
    out: dict[str, dict] = {}
    for s, self_s in zip(spans, own):
        row = out.setdefault(
            s[3],
            {"calls": 0, "s": 0.0, "self_s": 0.0, "terms_in": 0, "terms_out": 0, "peak": 0},
        )
        row["calls"] += 1
        row["s"] += s[5] - s[4]
        row["self_s"] += self_s
        row["terms_in"] += s[6]
        row["terms_out"] += s[7]
        row["peak"] = max(row["peak"], s[8])
        for key, value in (s[9] or {}).items():
            row[key] = row.get(key, 0) + value
    audit_deals = sum(
        1 for s in spans
        if s[3] == "protocol.deal" and s[1] >= 0 and names[s[1]].startswith("audit.")
    )
    out["_audit_deals"] = {"calls": audit_deals}
    return out


def _get(summary: dict, name: str, key: str):
    return summary.get(name, {}).get(key, 0)


def per_layer_metrics(summary: dict, overhead: float) -> dict[str, tuple[float, str]]:
    """Per-layer metric name -> (value, unit) for one traced round."""
    m: dict[str, tuple[float, str]] = {}
    for op in PAULI_OPS:
        name = f"paulis.{op}"
        calls = _get(summary, name, "calls")
        self_s = _get(summary, name, "self_s")
        terms = _get(summary, name, "terms_in")
        m[f"{name}.calls"] = (calls, "count")
        m[f"{name}.self_s"] = (self_s, "s")
        m[f"{name}.terms_in"] = (terms, "count")
        m[f"{name}.ns_per_term"] = (1e9 * self_s / terms if terms else 0.0, "ns")
    m["paulis.peak_terms"] = (
        max((row["peak"] for key, row in summary.items() if key.startswith("paulis.")), default=0),
        "count",
    )
    m["protocol.deal.s"] = (_get(summary, "protocol.deal", "s"), "s")
    m["protocol.deal.terms_out"] = (_get(summary, "protocol.deal", "terms_out"), "count")
    branches = _get(summary, "protocol.evaluate", "branches")
    distinct = _get(summary, "protocol.evaluate", "distinct_states")
    m["protocol.evaluate.s"] = (_get(summary, "protocol.evaluate", "s"), "s")
    m["protocol.evaluate.branches"] = (branches, "count")
    m["protocol.evaluate.distinct_states"] = (distinct, "count")
    m["protocol.evaluate.distinct_ratio"] = (distinct / branches if branches else 0.0, "ratio")
    m["protocol.reconstruct.calls"] = (_get(summary, "protocol.reconstruct", "calls"), "count")
    m["protocol.reconstruct.s"] = (_get(summary, "protocol.reconstruct", "s"), "s")
    for name in ("secret_independence_check", "parity_regime_check", "adversary_view"):
        m[f"audit.{name}.s"] = (_get(summary, f"audit.{name}", "s"), "s")
    m["audit.view_terms"] = (_get(summary, "audit.adversary_view", "terms_out"), "count")
    coalitions = _get(summary, "audit.secret_independence_check", "calls")
    m["audit.deals_per_coalition"] = (
        summary["_audit_deals"]["calls"] / coalitions if coalitions else 0.0,
        "count",
    )
    for name in ("build_unitary", "trace_distance", "eigvalsh"):
        m[f"dense.{name}.s"] = (_get(summary, f"dense.{name}", "s"), "s")
    for name in ("transversal_expand", "toffoli_gadget"):
        m[f"circuits.{name}.s"] = (_get(summary, f"circuits.{name}", "s"), "s")
    m["circuits.ladder_circuit.calls"] = (_get(summary, "circuits.ladder_circuit", "calls"), "count")
    for module in MODULES:
        m[f"{module}.self_s"] = (
            sum(row["self_s"] for key, row in summary.items() if key.startswith(module + ".")),
            "s",
        )
    m["trace.overhead_frac"] = (overhead, "ratio")
    return m


def write_spans(spans, path) -> None:
    keys = ("id", "parent", "job", "name", "start", "end", "terms_in", "terms_out", "peak", "extra")
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps(dict(zip(keys, s))) + "\n")
