"""Span tracer for the traced benchmark run.

`Tracer.install()` wraps every public function of the contactalg modules,
plus a few named methods, at every module that binds the function: the
package namespace and each module that imported the name directly
(`from .contact import check_axiom`). Each call records a span
`[name, start, end, parent, job, extra]` in memory; `uninstall()` puts
back the original objects, so an untraced run measures unmodified code.

Self time is a span's duration minus the durations of its direct
children. Spans are nested (one thread), so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

MODULES = ("boolean", "contact", "lca", "dimension", "weight", "topology", "cli")

# Methods traced besides the module-level functions: (module, class, method, span name).
METHODS = (
    ("contact", "ContactStructure", "closure_table", "contact.closure_table"),
    ("topology", "FiniteSpace", "__init__", "topology.FiniteSpace"),
)

NAME, START, END, PARENT, JOB, EXTRA = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.current = -1
        self.job = -1
        self.enabled = False
        self._seen_axioms: dict = {}
        self._seen_verdicts: dict = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- installation --

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        pkg = importlib.import_module("contactalg")
        mods = {m: importlib.import_module(f"contactalg.{m}") for m in MODULES}
        wrappers: dict[int, object] = {}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__
                ):
                    continue
                wrappers[id(obj)] = self._wrap(f"{short}.{attr}", obj)
        for target in (pkg, *mods.values()):
            for attr, obj in list(vars(target).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patches.append((target, attr, obj))
                    setattr(target, attr, wrapper)
        for short, cls_name, meth, span_name in METHODS:
            cls = getattr(mods[short], cls_name)
            original = cls.__dict__[meth]
            self._patches.append((cls, meth, original))
            setattr(cls, meth, self._wrap(span_name, original))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    # -- recording --

    def start_job(self, job: int) -> None:
        self.job = job
        self._seen_axioms = {}
        self._seen_verdicts = {}
        self.enabled = True

    def end_job(self) -> None:
        self.enabled = False
        self._seen_axioms = {}
        self._seen_verdicts = {}

    def _open(self, name: str, extra) -> list:
        rec = [name, 0.0, 0.0, self.current, self.job, extra]
        self.current = len(self.spans)
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        self.current = rec[PARENT]

    def _wrap(self, name: str, fn):
        annotate = _ANNOTATORS.get(name)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            # A generator works while it is resumed, so each resumption is
            # its own span, with its index as extra; only the first counts
            # as a call.
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                segment = 0
                try:
                    while True:
                        rec = tracer._open(name, segment) if tracer.enabled else None
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        finally:
                            if rec is not None:
                                tracer._close(rec)
                        segment += 1
                        yield item
                finally:
                    it.close()

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            rec = tracer._open(name, None)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if annotate is not None:
                rec[EXTRA] = annotate(tracer, args, kwargs, result)
            return result

        return wrapper


def _annotate_axiom(tracer: Tracer, args, kwargs, report):
    ca = args[0] if args else kwargs["ca"]
    name = args[1] if len(args) > 1 else kwargs["name"]
    structure = getattr(ca, "contact", ca)
    key = (id(structure), name)
    repeat = key in tracer._seen_axioms
    # Holding the structure keeps its id from being reused within the job.
    tracer._seen_axioms[key] = structure
    return (bool(report.ok), repeat)


def _annotate_dim_leq(tracer: Tracer, args, kwargs, verdict):
    q = args[0] if args else kwargs["q"]
    n = args[1] if len(args) > 1 else kwargs["n"]
    key = (id(q), n)
    repeat = key in tracer._seen_verdicts
    tracer._seen_verdicts[key] = q
    return (bool(verdict.holds), repeat)


_ANNOTATORS = {
    "contact.check_axiom": _annotate_axiom,
    "dimension.dim_leq": _annotate_dim_leq,
}


def summarize(spans: list[list], wall_s: float) -> dict[str, float]:
    """Per-layer metrics from the spans of one traced run."""
    n = len(spans)
    child = [0.0] * n
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]

    def module(name: str) -> str:
        return name.split(".", 1)[0]

    def outermost(i: int, pred) -> bool:
        """No ancestor of span i satisfies pred."""
        p = spans[i][PARENT]
        while p >= 0:
            if pred(spans[p][NAME]):
                return False
            p = spans[p][PARENT]
        return True

    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    incl_s: dict[str, float] = {}
    for i, rec in enumerate(spans):
        name = rec[NAME]
        dur = rec[END] - rec[START]
        is_call = not isinstance(rec[EXTRA], int) or rec[EXTRA] == 0
        for key in (name, module(name)):
            if is_call:
                calls[key] = calls.get(key, 0) + 1
            self_s[key] = self_s.get(key, 0.0) + dur - child[i]
        if outermost(i, lambda other, name=name: other == name):
            incl_s[name] = incl_s.get(name, 0.0) + dur

    wall_ms = wall_s * 1000.0
    out: dict[str, float] = {}
    for mod in MODULES:
        out[f"{mod}.calls"] = calls.get(mod, 0)
        out[f"{mod}.self_ms"] = self_s.get(mod, 0.0) * 1000.0
        out[f"{mod}.share"] = self_s.get(mod, 0.0) * 1000.0 / wall_ms if wall_ms else 0.0

    def ms(name: str) -> float:
        return incl_s.get(name, 0.0) * 1000.0

    axioms = [rec[EXTRA] for rec in spans if rec[NAME] == "contact.check_axiom"]
    out["contact.check_axiom.calls"] = len(axioms)
    out["contact.check_axiom.ms"] = ms("contact.check_axiom")
    out["contact.check_axiom.fail_share"] = _share(sum(not ok for ok, _ in axioms), len(axioms))
    out["contact.check_axiom.repeat_share"] = _share(sum(rep for _, rep in axioms), len(axioms))
    out["contact.closure_table.ms"] = ms("contact.closure_table")
    out["lca.check_lca_axioms.ms"] = ms("lca.check_lca_axioms")
    out["lca.is_dv_dense.ms"] = ms("lca.is_dv_dense")

    verdicts = [rec[EXTRA] for rec in spans if rec[NAME] == "dimension.dim_leq" and rec[EXTRA]]
    distinct = sum(not rep for _, rep in verdicts)
    out["dimension.dim_leq.calls"] = calls.get("dimension.dim_leq", 0)
    out["dimension.dim_leq.ms"] = ms("dimension.dim_leq")
    out["dimension.dim_leq.true_share"] = _share(sum(ok for ok, _ in verdicts), len(verdicts))
    out["dimension.dim_leq.calls_per_verdict"] = _share(len(verdicts), distinct)
    out["dimension.dim_a.ms"] = ms("dimension.dim_a")

    # Time inside algebra_weight spent in nested contact spans (outermost ones only).
    nested_contact = 0.0
    for i, rec in enumerate(spans):
        if module(rec[NAME]) != "contact":
            continue
        p, under_weight, under_contact = rec[PARENT], False, False
        while p >= 0:
            pname = spans[p][NAME]
            if module(pname) == "contact":
                under_contact = True
                break
            if pname == "weight.algebra_weight":
                under_weight = True
            p = spans[p][PARENT]
        if under_weight and not under_contact:
            nested_contact += rec[END] - rec[START]
    out["weight.algebra_weight.ms"] = ms("weight.algebra_weight")
    out["weight.algebra_weight.contact_share"] = _share(
        nested_contact, incl_s.get("weight.algebra_weight", 0.0)
    )

    for fn in ("FiniteSpace", "enumerate_topologies", "rc_algebra", "ro_algebra",
               "dim_cl", "lambda_t_map"):
        out[f"topology.{fn}.ms"] = ms(f"topology.{fn}")
    out["boolean.check_homomorphism.ms"] = ms("boolean.check_homomorphism")
    out["cli.main.self_ms"] = _self_ms(spans, child, "cli.main")
    out["cli.parse_algebra_file.ms"] = ms("cli.parse_algebra_file")
    return out


def _self_ms(spans, child, name: str) -> float:
    return 1000.0 * sum(
        rec[END] - rec[START] - child[i] for i, rec in enumerate(spans) if rec[NAME] == name
    )


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0
