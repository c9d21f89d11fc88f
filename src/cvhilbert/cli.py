"""Batch driver: parse context documents, run the verification chain, report.

The chain records raw values, and the report writers alone round them, to
twelve significant digits with negative zero normalized. Reports are
deterministic: byte-identical for the same document, nothing seeded or timed.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
from dataclasses import dataclass, field, replace
from operator import attrgetter

import numpy as np

from . import coherent, pairing, representations, spectra, spin, variables
from .errors import (
    CvhilbertError,
    IrreducibleInput,
    NotPermissible,
    ParseError,
    SchemaError,
    SizeLimit,
)
from .groups import DEFAULT_ORDER_BOUND, generate_permutation_group
from .variables import ConceptualVariable, Context, make_variable

SCHEMA_VERSION = "1"


@dataclass(frozen=True)
class DocumentPair:
    theta: str
    xi: str
    k: tuple[int, ...]          # a generator word resolved to its permutation


@dataclass(frozen=True)
class ContextDocument:
    phi_size: int
    generators: tuple[tuple[int, ...], ...]
    variables: dict[str, ConceptualVariable]
    maximal_family: tuple[str, ...]
    pairs: tuple[DocumentPair, ...]
    tolerance: float
    fiducial_index: int
    max_order: int
    spin_suite: bool


@dataclass
class CheckRecord:
    cid: str
    anchor: str
    status: str                 # pass | fail | skip
    residual: float | None = None
    witness: str | None = None
    detail: str | None = None


@dataclass
class VerificationReport:
    context_name: str
    tolerance: float
    checks: list[CheckRecord] = field(default_factory=list)
    operators: list[dict] = field(default_factory=list)
    question_answers: list[dict] = field(default_factory=list)

    def counts(self) -> tuple[int, int, int]:
        p = sum(1 for c in self.checks if c.status == "pass")
        f = sum(1 for c in self.checks if c.status == "fail")
        s = sum(1 for c in self.checks if c.status == "skip")
        return p, f, s

    @property
    def failed(self) -> bool:
        return any(c.status == "fail" for c in self.checks)


def _fmt(x) -> str:
    """Twelve significant digits; adding 0.0 turns -0.0 into 0.0."""
    return f"{float(x) + 0.0:.11e}"


def _pair_rows(matrix, sep: str) -> list[str]:
    """Each row of a complex matrix as text, an entry as its `[re,im]` pair,
    every number printed as `_fmt` prints it.

    Adding 0.0 to the nonzero entries turns a -0.0 part into 0.0; a -0.0
    entry is zero and prints as the zero string. Only the nonzero entries
    are formatted, each with the `%.11e` template, in row-major order; a NaN
    counts as nonzero. Each run of exact zeros between them is the one zero string
    repeated, so a row formats its nonzero entries, not its width: a
    diagonal d×d operator formats d numbers.
    """
    entries = np.asarray(matrix, dtype=complex)
    rows, cols = np.nonzero(entries)
    template = "[%.11e,%.11e]" + sep
    texts = [template % (z.real, z.imag) for z in (entries[rows, cols] + 0.0).tolist()]
    zero = template % (0.0, 0.0)
    lines, k, rows, cols = [], 0, rows.tolist(), cols.tolist()
    for i in range(entries.shape[0]):
        parts, at = [], 0
        while k < len(rows) and rows[k] == i:
            parts += (zero * (cols[k] - at), texts[k])
            at, k = cols[k] + 1, k + 1
        parts.append(zero * (entries.shape[1] - at))
        line = "".join(parts)
        lines.append(line[:len(line) - len(sep)])
    return lines


def parse_context(path: str) -> ContextDocument:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:
        # not UTF-8, an integer past Python's digit limit, or nesting past the recursion limit
        raise ParseError(f"{path}: {exc}") from exc
    return document_from_mapping(raw)


def _is_int(v) -> bool:
    """JSON integer; true and false are not integers."""
    return isinstance(v, int) and not isinstance(v, bool)


def _is_real(v) -> bool:
    """JSON number that converts to a finite float."""
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


def _is_permutation(v, size: int) -> bool:
    return (isinstance(v, list) and len(v) == size and all(_is_int(x) for x in v)
            and sorted(v) == list(range(size)))


def _is_value(v) -> bool:
    """A raw variable value: a JSON scalar, or a list of scalars."""
    if isinstance(v, list):
        return all(x is None or isinstance(x, (str, int, float)) for x in v)
    return v is None or isinstance(v, (str, int, float))


# options field -> (default, validity test, expected form); any other is refused
_OPTIONS = {
    # at 1 or more every overlap counts as parallel, so every element fixes
    # every fiducial
    "tolerance": (representations.DEFAULT_TOLERANCE, lambda v: _is_real(v) and 0 < v < 1,
                  "a positive number below 1"),
    "fiducial_index": (0, lambda v: _is_int(v) and v >= 0, "a non-negative integer"),
    "max_order": (DEFAULT_ORDER_BOUND, lambda v: _is_int(v) and v > 0, "a positive integer"),
    "spin_suite": (False, lambda v: isinstance(v, bool), "true or false"),
}


def document_from_mapping(raw: dict) -> ContextDocument:
    """Validate a raw mapping against the document schema."""
    if not isinstance(raw, dict):
        raise SchemaError(["document: must be a JSON object"])
    problems = []

    def closed(mapping, where, *fields):
        """Refuse every key of `mapping` outside `fields`: a misspelled
        field is an error, at any depth, not an absent one."""
        problems.extend(f"{where}: unknown field {key!r}" for key in mapping if key not in fields)

    def need(container, key, kind, where):
        if key not in container:
            problems.append(f"{where}: missing field {key!r}")
            return None
        value = container[key]
        if not isinstance(value, kind) or (kind is int and not _is_int(value)):
            problems.append(f"{where}: field {key!r} has wrong type")
            return None
        return value

    closed(raw, "document", "schema_version", "phi_space", "group_K", "variables",
           "maximal_family", "pairs", "options")
    if raw.get("schema_version", SCHEMA_VERSION) != SCHEMA_VERSION:
        problems.append(f"schema_version: must be {SCHEMA_VERSION!r}")
    phi = need(raw, "phi_space", dict, "document") or {}
    closed(phi, "phi_space", "size", "labels")
    size = need(phi, "size", int, "phi_space") or 0
    labels = phi.get("labels")
    if labels is not None and (not isinstance(labels, list) or len(labels) != size
                               or not all(isinstance(x, str) for x in labels)):
        problems.append("phi_space: labels must list one name per point")
    group_k = need(raw, "group_K", dict, "document") or {}
    closed(group_k, "group_K", "generators", "names")
    gens_raw = need(group_k, "generators", list, "group_K") or []
    gens: list[tuple[int, ...]] = []
    for i, g in enumerate(gens_raw):
        if not _is_permutation(g, size):
            problems.append(f"group_K: generator {i} is not a permutation of {size} points")
        else:
            gens.append(tuple(g))
    names = group_k.get("names")
    if names is not None and (not isinstance(names, list)
                              or not all(isinstance(n, str) for n in names)
                              or len(names) != len(gens_raw) or len(set(names)) != len(names)):
        problems.append("group_K: names must be unique, one per generator")
        names = None
    if names is None:
        names = [f"g{i}" for i in range(len(gens_raw))]
    vars_raw = need(raw, "variables", list, "document")
    vars_out: dict[str, ConceptualVariable] = {}
    seen_names: set[str] = set()
    for i, v in enumerate(vars_raw or []):
        if not isinstance(v, dict):
            problems.append(f"variables[{i}]: must be an object")
            continue
        closed(v, f"variables[{i}]", "name", "values", "numeric_values")
        name = v.get("name")
        values = v.get("values")
        if not isinstance(name, str) or not name:
            problems.append(f"variables[{i}]: missing name")
            continue
        if name in seen_names:
            problems.append(f"variables[{i}]: duplicate name {name!r}")
            continue
        seen_names.add(name)
        if (not isinstance(values, list) or len(values) != size
                or not all(_is_value(x) for x in values)):
            problems.append(f"variables[{i}] ({name}): values must list one scalar "
                            "or list of scalars per point")
            continue
        numeric = v.get("numeric_values")
        if numeric is not None and (not isinstance(numeric, list)
                                    or not all(_is_real(x) for x in numeric)):
            problems.append(f"variables[{i}] ({name}): numeric_values must be a list of numbers")
            continue
        try:
            vars_out[name] = make_variable(
                name, [tuple(x) if isinstance(x, list) else x for x in values], numeric)
        except ValueError as exc:       # a numeric value count that is not the value count
            problems.append(f"variables[{i}] ({name}): {exc}")
    family = raw.get("maximal_family", [])
    if not isinstance(family, list) or not all(isinstance(n, str) for n in family):
        problems.append("maximal_family: must be a list of variable names")
        family = []
    for i, name in enumerate(family):
        if name not in seen_names:
            problems.append(f"maximal_family: undefined variable {name!r}")
        elif name in family[:i]:
            problems.append(f"maximal_family: duplicate variable {name!r}")
    pairs_raw = raw.get("pairs", [])
    pairs = []
    if not isinstance(pairs_raw, list):
        problems.append("pairs: must be a list")
        pairs_raw = []
    for i, p in enumerate(pairs_raw):
        if not isinstance(p, dict):
            problems.append(f"pairs[{i}]: must be an object")
            continue
        closed(p, f"pairs[{i}]", "theta", "xi", "k")
        theta, xi = p.get("theta"), p.get("xi")
        for ref in (theta, xi):
            if not isinstance(ref, str) or ref not in seen_names:
                problems.append(f"pairs[{i}]: undefined variable {ref!r}")
        k = p.get("k")
        if isinstance(k, str):
            for part in k.split():
                if part not in names:
                    problems.append(f"pairs[{i}]: word element {part!r} is not a generator name")
        elif not isinstance(k, list):
            problems.append(f"pairs[{i}]: k must be a generator word or a permutation")
        elif not _is_permutation(k, size):
            problems.append(f"pairs[{i}]: k is not a permutation of {size} points")
        pairs.append((str(theta), str(xi), k))
    options = raw.get("options", {})
    if not isinstance(options, dict):
        problems.append("options: must be an object")
        options = {}
    closed(options, "options", *_OPTIONS)
    opts = {}
    for key, (default, valid, expected) in _OPTIONS.items():
        opts[key] = options.get(key, default)
        if not valid(opts[key]):
            problems.append(f"options: field {key!r} must be {expected}")
    if size <= 0:
        problems.append("phi_space: size must be positive")
    if problems:
        raise SchemaError(problems)
    # each k, now valid, as a permutation: the factors of a generator word
    # multiply left to right, so "a b" applies b first
    named = dict(zip(names, gens))
    resolved = []
    for theta, xi, k in pairs:
        if isinstance(k, str):
            k = functools.reduce(lambda perm, g: tuple(perm[x] for x in g),
                                 map(named.get, k.split()), range(size))
        resolved.append(DocumentPair(theta, xi, tuple(k)))
    return ContextDocument(
        size, tuple(gens), vars_out, tuple(family), tuple(resolved),
        float(opts["tolerance"]), opts["fiducial_index"], opts["max_order"], opts["spin_suite"],
    )


def _fiducial(doc: ContextDocument, dim: int) -> int:
    """The document's fiducial index, clamped to the last basis vector."""
    return min(doc.fiducial_index, dim - 1)


# check family -> the construction step its records are anchored to
_ANCHORS = {
    "group-axioms": "group-axioms",
    "permissibility": "level-set-preservation",
    "induced-group": "induced-value-group",
    "maximality": "no-strict-accessible-refinement",
    "relatedness": "relating-transformation",
    "joint-group": "joined-group",
    "well-defined-extension": "generator-assignment-extends",
    "irreducibility": "trivial-commutant",
    "coset-labels": "axis-factorization",
    "operator-construction": "weighted-projector-operators",
    "eigenvalue-value-match": "spectrum-equals-values",
    "maximality-nondegeneracy": "maximal-iff-multiplicity-free",
    "conjugation-covariance": "operator-transport",
    "transition-unitarity": "basis-change",
    "spin-commutation": "ladder-commutators",
    "planar-covariance": "rotated-component-equalities",
    "full-rotation-witness": "axis-component-obstruction",
}


class _Stop(Exception):
    """Raised by a stage to end its chain: the run's, or the current pair's."""


@dataclass
class _Run:
    """The state of one `verify` run; each stage reads what earlier ones set."""
    doc: ContextDocument
    report: VerificationReport
    context: Context | None = None      # K acting on the space, and the family
    induced: dict = field(default_factory=dict)     # permissible name -> (G, action)
    # the pair in hand, set stage by stage
    idx: int = 0
    dpair: DocumentPair | None = None
    pair: pairing.RelatedPair | None = None
    joint: pairing.JointGroup | None = None
    joint_rep: representations.UnitaryRepresentation | None = None
    system: pairing.JointSystem | None = None
    values: tuple = ()                  # numeric values of the pair's two variables
    eigs: tuple = ()                    # and the eigensystems of their operators

    def add(self, family: str, status, *keys, **fields) -> None:
        """Append the check family[key]..., anchored by `_ANCHORS`; a status
        that is not a string is read as pass or fail by its truth."""
        if not isinstance(status, str):
            status = "pass" if status else "fail"
        cid = family + "".join(f"[{key}]" for key in keys)
        self.report.checks.append(CheckRecord(cid, _ANCHORS[family], status, **fields))


class _Failing:
    """A context in which a library error is the failed check family[keys],
    the error's text its detail, and ends the chain with `_Stop`. A class,
    not a generator: a chain enters one per stage, variable and spin."""
    __slots__ = ("run", "family", "keys")

    def __init__(self, run: _Run, family: str, *keys):
        self.run, self.family, self.keys = run, family, keys

    def __enter__(self) -> None:
        return None

    def __exit__(self, kind, exc, traceback) -> None:
        if isinstance(exc, CvhilbertError):
            self.run.add(self.family, "fail", *self.keys, detail=str(exc))
            raise _Stop from exc


def _run_stages(run: _Run, stages, *keys) -> None:
    """Run the (stage, check family) pairs in order until one ends the chain:
    by raising `_Stop` once it has recorded why, or by raising a library
    error, which is then the stage's failed check family[keys] (`_Failing`).
    A pair's chain is keyed by the pair's index, and a stage that loops over
    variables or spins keys its own failure by the one in hand."""
    for stage, family in stages:
        try:
            with _Failing(run, family, *keys):
                stage(run)
        except _Stop:
            return


def run_verify(doc: ContextDocument, context_name: str = "document") -> VerificationReport:
    """Execute the full check chain on a parsed document: `_STAGES` in order."""
    run = _Run(doc, VerificationReport(context_name, doc.tolerance))
    _run_stages(run, _STAGES)
    return run.report


def _close_k(run: _Run) -> None:
    doc = run.doc
    k_group, k_action = generate_permutation_group(
        doc.generators, space_size=doc.phi_size, order_bound=doc.max_order)
    # a built group's rows are its action, so the points ride on the group's pass
    run.add("group-axioms", "pass", detail=f"order={k_group.order} points={k_action.space_size}")
    family = tuple(doc.variables[name] for name in doc.maximal_family)
    run.context = Context(doc.phi_size, k_action, family)


def _permissibility(run: _Run) -> None:
    for name, var in run.doc.variables.items():
        with _Failing(run, "permissibility", name):
            try:
                run.induced[name] = variables.induced_group(var, run.context.acting_group)
            except NotPermissible as exc:
                k, p1, p2 = exc.witness
                run.add("permissibility", "fail", name, witness=f"k={k} p1={p1} p2={p2}")
                run.add("induced-group", "skip", name, detail="variable not permissible")
                continue
        run.add("permissibility", "pass", name)
        run.add("induced-group", "pass", name, detail=f"order={run.induced[name][0].order}")


def _maximality(run: _Run) -> None:
    for name in run.doc.maximal_family:
        with _Failing(run, "maximality", name):
            is_max = variables.is_maximally_accessible(run.context, run.doc.variables[name])
        run.add("maximality", is_max, name)


def _pairs(run: _Run) -> None:
    for idx, dpair in enumerate(run.doc.pairs):
        run.idx, run.dpair = idx, dpair
        _run_stages(run, _PAIR_STAGES, idx)


def _relate(run: _Run) -> None:
    doc, dpair = run.doc, run.dpair
    run.pair = pairing.build_related_pair(
        run.context, doc.variables[dpair.theta], doc.variables[dpair.xi], dpair.k)
    # the involution condition fails as InvolutionViolation, a failed
    # relatedness, so k^2 = I rides on the pass
    run.add("relatedness", "pass", run.idx,
            detail=f"k_squared_identity={run.pair.k_squared_identity}")


def _join(run: _Run) -> None:
    if run.dpair.theta not in run.induced:
        run.add("joint-group", "skip", run.idx, detail="first variable not permissible")
        raise _Stop
    g_action = run.induced[run.dpair.theta][1]
    run.joint = pairing.build_joint_group(run.pair, g_action, run.doc.max_order)
    run.add("joint-group", "pass", run.idx, detail=f"order={run.joint.group.order} "
            f"points={run.joint.value_action.space_size ** 2}")


def _extend(run: _Run) -> None:
    g_group = run.induced[run.dpair.theta][0]
    try:
        base_rep = representations.regular_representation(g_group, run.doc.tolerance)
        run.joint_rep = pairing.build_joint_representation(
            run.joint, base_rep, pairing.build_swap_matrix(base_rep))
    except (SizeLimit, IrreducibleInput) as exc:
        # no swap matrix, or a bound hit: the extension itself was not decided
        run.add("well-defined-extension", "fail", run.idx, detail=f"not evaluated: {exc}")
        raise _Stop from exc
    run.add("well-defined-extension", "pass", run.idx)
    dim = representations.commutant_dimension(run.joint_rep)
    run.add("irreducibility", dim == 1, run.idx, detail=f"commutant_dim={dim}")


def _label(run: _Run) -> None:
    # a labeling implies that the states of the basis fiducial are the d
    # basis vectors, one each, so they are distinct and resolve the identity
    # with c = 1 exactly (`pairing.joint_coset_structure`)
    run.system = pairing.joint_coset_structure(
        run.joint, run.joint_rep, _fiducial(run.doc, run.joint_rep.dim))
    states = run.system.coherent
    run.add("coset-labels", "pass", run.idx,
            detail=f"cosets={len(states.cosets)} isotropy={states.isotropy.order}")


def _operators(run: _Run) -> None:
    pair, system = run.pair, run.system
    try:
        run.values = (pair.theta.numeric(), pair.xi.numeric())
    except ValueError as exc:
        run.add("operator-construction", "skip", run.idx, detail=str(exc))
        raise _Stop from exc
    try:
        ops = pairing.joint_operators(system, *run.values)
    except ValueError as exc:
        run.add("operator-construction", "fail", run.idx, detail=str(exc))
        raise _Stop from exc
    run.eigs = tuple(spectra.eigensystem(op) for op in ops)
    run.add("operator-construction", "pass", run.idx)
    for var, eig in zip((pair.theta, pair.xi), run.eigs):
        run.report.operators.append({"pair": run.idx, "variable": var.name,
                                     "matrix": eig.operator.matrix, "eigenvalues": eig.spectrum})
        run.add("eigenvalue-value-match", spectra.verify_values_are_eigenvalues(eig, var),
                run.idx, var.name)
        # both variables are maximal, or `_relate` would have stopped the pair
        run.add("maximality-nondegeneracy", not eig.degenerate, run.idx, var.name)
        for qa in spectra.question_answer_labels(eig, var):
            run.report.question_answers.append({
                "pair": run.idx, "variable": qa.variable, "value": qa.value_label,
                "numeric": qa.numeric_value, "rank": qa.rank, "vector": qa.eigenvector})


def _covariance(run: _Run) -> None:
    try:
        records = pairing.covariance_records(run.system, run.eigs[0].operator, run.values[0])
    except ValueError as exc:
        # a moved operator can overflow where the first operator did not
        run.add("conjugation-covariance", "fail", run.idx,
                detail=f"moved operator not built: {exc}")
        records = []
    for rec in records:
        if rec.ok:
            status, detail = "pass", None
        elif rec.obstructed:
            status = "skip"
            detail = "transport undefined: value motion not resolved by matrices (scalar collision)"
        else:
            status, detail = "fail", None
        run.add("conjugation-covariance", status, run.idx, f"t={rec.element}",
                residual=rec.residual, detail=detail)


def _basis_change(run: _Run) -> None:
    eig_theta, eig_xi = run.eigs
    if eig_theta.degenerate or eig_xi.degenerate:
        run.add("transition-unitarity", "skip", run.idx, detail="degenerate spectrum")
        return
    t = spectra.transition_matrix(eig_theta, eig_xi)
    resid = float(np.abs(t @ t.conj().T - np.eye(run.system.dim)).max())
    run.add("transition-unitarity", resid <= run.doc.tolerance, run.idx, residual=resid)


def _spin_suite(run: _Run) -> None:
    if not run.doc.spin_suite:
        return
    for twice_r in (1, 2, 3, 4, 5):
        r = twice_r / 2
        # build_spin has checked the squared total, and A0 is diag(m) exactly
        with _Failing(run, "spin-commutation", f"r={r}"):
            sr = spin.build_spin(r)
            resid = spin.verify_commutation(sr)
        run.add("spin-commutation", resid <= 1e-12, f"r={r}", residual=resid,
                detail=f"dim={sr.dim}")
    for n in range(3, 13):
        run.add("planar-covariance", spin.planar_component_covariance(n), f"n={n}")
    _, _, witness, axes = spin.full_rotation_counterexample()
    run.add("full-rotation-witness", witness is not None,
            witness=witness and f"k={witness[0]} points=({axes[0]},{axes[1]})")


# The chain, each stage with the check family that a library error raised in
# it fails: close K, permissibility and the induced groups, maximality, the
# pairs, the spin suite. Each pair runs relate, join, extend (with
# irreducibility), label the cosets, build the operators and their spectra,
# covariance, basis change.
# `_pairs` has no family: each pair's chain records its own failures.
_STAGES = ((_close_k, "group-axioms"), (_permissibility, "permissibility"),
           (_maximality, "maximality"), (_pairs, None), (_spin_suite, "spin-commutation"))
_PAIR_STAGES = ((_relate, "relatedness"), (_join, "joint-group"),
                (_extend, "well-defined-extension"), (_label, "coset-labels"),
                (_operators, "operator-construction"), (_covariance, "conjugation-covariance"),
                (_basis_change, "transition-unitarity"))


def emit_report(report: VerificationReport, fmt: str = "text") -> str:
    if fmt == "structured":
        return _structured_report(report)
    if fmt != "text":
        raise ValueError(f"unknown format {fmt!r}")
    lines = [
        "verification report",
        f"context: {report.context_name}",
        f"tolerance: {_fmt(report.tolerance)}",
        "seeds: none",
    ]
    for i, c in enumerate(report.checks, start=1):
        parts = [f"[{i:>3}] {c.status.upper():<4} {c.cid:<48} anchor={c.anchor}"]
        if c.residual is not None:
            parts.append(f"residual={_fmt(c.residual)}")
        if c.witness:
            parts.append(f"witness={c.witness}")
        if c.detail:
            parts.append(c.detail)
        lines.append(" ".join(parts))
    for op in report.operators:
        lines.append(f"operator pair={op['pair']} variable={op['variable']}")
        lines.extend("  " + row for row in _pair_rows(op["matrix"], "  "))
        lines.append("  eigenvalues: " + " ".join(_fmt(v) for v in op["eigenvalues"]))
    for qa in report.question_answers:
        vec = "" if qa["vector"] is None else " vector=" + _pair_rows([qa["vector"]], " ")[0]
        lines.append(
            f"question variable={qa['variable']} answer={qa['value']} "
            f"numeric={_fmt(qa['numeric'])} rank={qa['rank']}{vec}"
        )
    p, f, s = report.counts()
    lines.append(f"summary: checks={len(report.checks)} pass={p} fail={f} skip={s}")
    return "\n".join(lines) + "\n"


def _list(items, pad: int) -> str:
    """The indent=2 JSON layout of a list of the laid-out `items`, its
    brackets `pad` spaces in."""
    if not items:
        return "[]"
    inner = "\n" + " " * (pad + 2)
    return "[" + inner + ("," + inner).join(items) + "\n" + " " * pad + "]"


def _fill(cut: list[str], *layouts: str) -> str:
    """A layout cut at its "|" slots, with the given layouts in the slots."""
    return "".join(itertools.chain.from_iterable(zip(cut, layouts))) + cut[-1]


# The structured report is written without json's pure-Python indent
# encoder: every leaf, in document order and each [re, im] entry as two, is
# encoded by one call to the C encoder with NUL between leaves, which its
# ASCII escaping never leaves inside a string, and the pieces fill one
# layout template of "%s" slots. Report text is only ever an argument.
_LEAF_ENCODER = json.JSONEncoder(separators=("\x00", ":"))
# non-finite numbers, which strict JSON refuses, as the text report prints them
_NON_FINITE = {"Infinity": '"inf"', "-Infinity": '"-inf"', "NaN": '"nan"'}
_CHECK_LEAVES = attrgetter("cid", "anchor", "status", "residual", "witness", "detail")
# the layouts of a check, an operator, an answer and the document, the last
# three cut at the "|" slots of their lists
_CHECK = ('{\n      "id": %s,\n      "anchor": %s,\n      "status": %s,\n'
          '      "residual": %s,\n      "witness": %s,\n      "detail": %s\n    }')
_OPERATOR = ('{\n      "pair": %s,\n      "variable": %s,\n      "matrix": |,\n'
             '      "eigenvalues": |\n    }').split("|")
_ANSWER = ('{\n      "pair": %s,\n      "variable": %s,\n      "value": %s,\n'
           '      "numeric": %s,\n      "rank": %s,\n      "vector": |\n    }').split("|")
_DOCUMENT = ('{\n  "schema_version": %s,\n  "context": %s,\n  "tolerance": %s,\n  "seeds": %s,\n'
             '  "checks": |,\n  "operators": |,\n  "question_answers": |,\n  "summary": {\n'
             '    "pass": %s,\n    "fail": %s,\n    "skip": %s\n  }\n}\n').split("|")
_ENTRY_8, _ENTRY_10 = _list(("%s", "%s"), 8), _list(("%s", "%s"), 10)


def _rounded(values: list) -> list[float]:
    """Each number to the twelve digits `_fmt` prints: one `%.11e` template
    for all, one parse back, and adding 0.0 turns -0.0 into 0.0."""
    texts = ("\x00".join(["%.11e"] * len(values)) % tuple(values)).split("\x00")
    return (np.fromiter(map(float, texts), float, len(texts)) + 0.0).tolist()


def _re_im(a: np.ndarray) -> list[float]:
    """The entries of a complex array in row-major order, each as re, im."""
    return np.ascontiguousarray(a, dtype=complex).view(float).ravel().tolist()


def _structured_report(report: VerificationReport) -> str:
    """The report's JSON document, laid out as `json.dumps(..., indent=2)`
    lays it out, and a newline. Every float leaf is rounded, all in one
    `_rounded` pass. Each matrix and vector is one entry layout repeated."""
    flat = itertools.chain.from_iterable
    leaves = [SCHEMA_VERSION, report.context_name, float(report.tolerance), None]
    leaves += flat(map(_CHECK_LEAVES, report.checks))
    operators = []
    for op in report.operators:
        matrix, eigenvalues = op["matrix"], op["eigenvalues"]
        leaves += (op["pair"], op["variable"])
        leaves += _re_im(matrix)
        leaves += eigenvalues.tolist()
        row = _list((_ENTRY_10,) * matrix.shape[1], 8)
        operators.append(_fill(_OPERATOR, _list((row,) * len(matrix), 6),
                               _list(("%s",) * len(eigenvalues), 6)))
    answers = []
    for qa in report.question_answers:
        vector = qa["vector"]
        leaves += (qa["pair"], qa["variable"], qa["value"], qa["numeric"], qa["rank"])
        leaves += (None,) if vector is None else _re_im(vector)
        answers.append(_fill(_ANSWER, "%s" if vector is None
                             else _list((_ENTRY_8,) * len(vector), 6)))
    leaves += report.counts()
    floats = np.fromiter(map(isinstance, leaves, itertools.repeat(float)), bool, len(leaves))
    leaves = np.fromiter(leaves, object, len(leaves))
    leaves[floats] = _rounded(leaves[floats].tolist())
    encoded = _LEAF_ENCODER.encode(leaves.tolist())
    texts = encoded[1:-1].split("\x00")
    if "Infinity" in encoded or "NaN" in encoded:
        # a string leaf holding these words is quoted, so only numbers match
        texts = map(_NON_FINITE.get, texts, texts)
    return _fill(_DOCUMENT, _list((_CHECK,) * len(report.checks), 2), _list(operators, 2),
                 _list(answers, 2)) % tuple(texts)


def two_bit_document() -> dict:
    """The worked two-binary-variable fixture as a raw document mapping."""
    return {
        "schema_version": SCHEMA_VERSION,
        "phi_space": {"size": 4, "labels": ["00", "01", "10", "11"]},
        "group_K": {
            "generators": [[2, 3, 0, 1], [1, 0, 3, 2]],
            "names": ["flip1", "flip2"],
        },
        "variables": [
            {"name": "bit1", "values": [0, 0, 1, 1], "numeric_values": [0.0, 1.0]},
            {"name": "bit2", "values": [0, 1, 0, 1], "numeric_values": [0.0, 1.0]},
        ],
        "maximal_family": ["bit1", "bit2"],
        "pairs": [{"theta": "bit1", "xi": "bit2", "k": [0, 2, 1, 3]}],
        "options": {"tolerance": 1e-9, "fiducial_index": 0, "max_order": 1024},
    }


def _apply_overrides(doc: ContextDocument, args) -> ContextDocument:
    """The document with the options given by --tolerance and --max-order."""
    updates = {key: getattr(args, key) for key in ("tolerance", "max_order")
               if getattr(args, key, None) is not None}
    for key, value in updates.items():
        _, valid, expected = _OPTIONS[key]
        if not valid(value):
            raise SchemaError([f"--{key.replace('_', '-')}: must be {expected}"])
    return replace(doc, **updates)


def _cmd_report(args) -> int:
    """verify, pair and demo: a verification report on stdout."""
    if args.command == "demo":
        if args.name != "two-bit":
            print(f"unknown demo {args.name!r}", file=sys.stderr)
            return 1
        doc, name = document_from_mapping(two_bit_document()), "demo:two-bit"
    else:
        doc, name = parse_context(args.file), args.file
    doc = _apply_overrides(doc, args)
    if args.command == "pair":
        if not 0 <= args.pair < len(doc.pairs):
            print(f"pair index {args.pair} out of range", file=sys.stderr)
            return 1
        doc = replace(doc, pairs=(doc.pairs[args.pair],), spin_suite=False)
        name = f"{args.file}#pair{args.pair}"
    report = run_verify(doc, context_name=name)
    sys.stdout.write(emit_report(report, args.format))
    return 2 if report.failed else 0


def _write_lines(lines: list[str]) -> None:
    """Print each line with its newline, one write per line: no string the
    size of the report is built."""
    sys.stdout.writelines(line + "\n" for line in lines)


def _cmd_operator(args) -> int:
    doc = parse_context(args.file)
    doc = _apply_overrides(doc, args)
    if args.variable not in doc.variables:
        print(f"undefined variable {args.variable!r}", file=sys.stderr)
        return 1
    var = doc.variables[args.variable]
    try:
        numeric = var.numeric()
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    _, k_action = generate_permutation_group(
        doc.generators, space_size=doc.phi_size, order_bound=doc.max_order
    )
    try:
        g_group, g_action = variables.induced_group(var, k_action)
    except NotPermissible as exc:
        print(f"variable {var.name} is not permissible: witness {exc.witness}", file=sys.stderr)
        return 2
    lines = [f"operator for {var.name}", f"induced group order: {g_group.order}"]
    try:
        base_rep = representations.regular_representation(g_group, doc.tolerance)
        system = coherent.build_coherent_system(base_rep, _fiducial(doc, base_rep.dim))
    except CvhilbertError as exc:
        lines.append(f"operator not constructed: {exc}")
        _write_lines(lines)
        return 2
    # the state of the coset of g carries the value of the point g . 0
    points = g_action.act[list(system.cosets.representatives), 0]
    try:
        op = coherent.operator_from_variable(system, np.asarray(numeric, dtype=float)[points])
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    lines.append("matrix:")
    lines.extend("  " + row for row in _pair_rows(op.matrix, "  "))
    eig = spectra.eigensystem(op)
    lines.append("eigenvalues: " + " ".join(_fmt(v) for v in eig.eigenvalues))
    for qa in spectra.question_answer_labels(eig, var):
        lines.append(f"question value={qa.value_label} numeric={_fmt(qa.numeric_value)} rank={qa.rank}")
    _write_lines(lines)
    return 0


def _cmd_spin(args) -> int:
    try:
        sr = spin.build_spin(args.r)
    except CvhilbertError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    resid = spin.verify_commutation(sr)
    lines = [
        f"spin r={args.r}",
        f"dimension: {sr.dim}",
        f"commutation residual: {_fmt(resid)}",
    ]
    full_turn = spin.rotation_operator(sr, (0.0, 0.0, 1.0), 2 * np.pi)
    sign = -1.0 if sr.dim % 2 == 0 else 1.0
    flip_resid = float(np.abs(full_turn - sign * np.eye(sr.dim)).max())
    lines.append(
        f"full-turn sign: {'-1' if sign < 0 else '+1'} residual: {_fmt(flip_resid)}"
    )
    ok = resid <= 1e-12 and flip_resid <= 1e-10
    lines.append(f"summary: {'pass' if ok else 'fail'}")
    _write_lines(lines)
    return 0 if ok else 2


def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once, when the module is imported."""
    parser = argparse.ArgumentParser(
        prog="cvhilbert",
        description="verify operator constructions over finite symmetry contexts",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--tolerance", type=float, default=None)
        p.add_argument("--max-order", type=int, default=None, dest="max_order")

    def reporting(p):   # commands that print a verification report
        common(p)
        p.add_argument("--format", choices=("text", "structured"), default="text")

    p_verify = sub.add_parser("verify", help="run the full check chain on a document")
    p_verify.add_argument("file")
    reporting(p_verify)
    p_verify.set_defaults(func=_cmd_report)

    p_operator = sub.add_parser("operator", help="single-variable operator report")
    p_operator.add_argument("file")
    p_operator.add_argument("--variable", required=True)
    common(p_operator)
    p_operator.set_defaults(func=_cmd_operator)

    p_pair = sub.add_parser("pair", help="joint construction report for one pair")
    p_pair.add_argument("file")
    p_pair.add_argument("--pair", type=int, required=True)
    reporting(p_pair)
    p_pair.set_defaults(func=_cmd_report)

    p_spin = sub.add_parser("spin", help="spin matrix suite")
    p_spin.add_argument("--r", type=float, required=True)
    p_spin.set_defaults(func=_cmd_spin)

    p_demo = sub.add_parser("demo", help="run a built-in demonstration document")
    p_demo.add_argument("name")
    reporting(p_demo)
    p_demo.set_defaults(func=_cmd_report)
    return parser


# Built at import: the first parse then imports nothing (argparse's messages
# load `locale`), and every command runs on the modules already loaded.
_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        code = args.func(args)
        # a closed stdout shows here, inside the handler, and not in the
        # interpreter's flush at exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader has closed stdout. Point its descriptor at os.devnull,
        # so that the interpreter's final flush of what is still buffered
        # stays quiet, and end with 1 (Python's `signal` docs, "Note on
        # SIGPIPE")
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except (ParseError, SchemaError) as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except CvhilbertError as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
