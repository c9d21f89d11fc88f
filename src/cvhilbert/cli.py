"""Batch driver: parse context documents, run the verification chain, report.

Reports are deterministic: the same document produces byte-identical output,
numbers are printed with twelve significant digits, negative zero is
normalized, and nothing is seeded or timed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from . import coherent, pairing, representations, spectra, spin, variables
from .errors import (
    CosetLabelingError,
    CvhilbertError,
    InvolutionViolation,
    NotMaximal,
    NotRelated,
    NotWellDefined,
    ParseError,
    SchemaError,
    SizeLimit,
)
from .groups import compose, generate_permutation_group
from .variables import ConceptualVariable, Context, make_variable

SCHEMA_VERSION = "1"


@dataclass(frozen=True)
class DocumentPair:
    theta: str
    xi: str
    k_word: str | None
    k_perm: tuple[int, ...] | None


@dataclass(frozen=True)
class ContextDocument:
    schema_version: str
    phi_size: int
    phi_labels: tuple[str, ...] | None
    generators: tuple[tuple[int, ...], ...]
    generator_names: tuple[str, ...]
    variables: tuple[dict, ...]
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


def _num(x) -> float:
    """Normalize to twelve significant digits; negative zero becomes zero."""
    v = float(x)
    if v == 0.0:
        return 0.0
    return float(f"{v:.11e}")


def _fmt(x) -> str:
    v = float(x)
    if v == 0.0:
        v = 0.0
    return f"{v:.11e}"


def _pair_rows(pairs, sep: str) -> list[str]:
    """Each row of `[re,im]` pairs as text, every number printed as `_fmt` prints it.

    `pairs` has shape (rows, cols, 2). Adding 0.0 turns -0.0 into 0.0, and one
    `%.11e` template formats a whole row.
    """
    pairs = np.asarray(pairs, dtype=float) + 0.0
    template = sep.join(["[%.11e,%.11e]"] * pairs.shape[1])
    return [template % tuple(row.tolist()) for row in pairs.reshape(len(pairs), -1)]


def _matrix_payload(m: np.ndarray) -> list:
    return [[[_num(v.real), _num(v.imag)] for v in row] for row in np.asarray(m, dtype=complex)]


def _vector_payload(v: np.ndarray) -> list:
    return [[_num(x.real), _num(x.imag)] for x in np.asarray(v, dtype=complex)]


def parse_context(path: str) -> ContextDocument:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
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


# options field -> (default, validity test, expected form)
_OPTIONS = {
    "tolerance": (1e-9, lambda v: _is_real(v) and v > 0, "a positive number"),
    "fiducial_index": (0, lambda v: _is_int(v) and v >= 0, "a non-negative integer"),
    "max_order": (1024, lambda v: _is_int(v) and v > 0, "a positive integer"),
    "spin_suite": (False, lambda v: isinstance(v, bool), "true or false"),
}


def document_from_mapping(raw: dict) -> ContextDocument:
    """Validate a raw mapping against the document schema."""
    if not isinstance(raw, dict):
        raise SchemaError(["document: must be a JSON object"])
    problems: list[str] = []

    def need(container, key, kind, where):
        if key not in container:
            problems.append(f"{where}: missing field {key!r}")
            return None
        value = container[key]
        if not isinstance(value, kind) or (kind is int and not _is_int(value)):
            problems.append(f"{where}: field {key!r} has wrong type")
            return None
        return value

    version = str(raw.get("schema_version", SCHEMA_VERSION))
    phi = need(raw, "phi_space", dict, "document") or {}
    size = need(phi, "size", int, "phi_space") or 0
    labels = phi.get("labels")
    if labels is not None:
        if not isinstance(labels, list) or len(labels) != size:
            problems.append("phi_space: labels must list one name per point")
            labels = None
    group_k = need(raw, "group_K", dict, "document") or {}
    gens_raw = need(group_k, "generators", list, "group_K") or []
    gens: list[tuple[int, ...]] = []
    for i, g in enumerate(gens_raw):
        if not _is_permutation(g, size):
            problems.append(f"group_K: generator {i} is not a permutation of {size} points")
        else:
            gens.append(tuple(g))
    names = group_k.get("names") or [f"g{i}" for i in range(len(gens_raw))]
    if (not isinstance(names, list) or not all(isinstance(n, str) for n in names)
            or len(names) != len(gens_raw) or len(set(names)) != len(names)):
        problems.append("group_K: names must be unique, one per generator")
        names = [f"g{i}" for i in range(len(gens_raw))]
    vars_raw = need(raw, "variables", list, "document")
    vars_out: list[dict] = []
    seen_names: set[str] = set()
    for i, v in enumerate(vars_raw or []):
        if not isinstance(v, dict):
            problems.append(f"variables[{i}]: must be an object")
            continue
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
        vars_out.append({"name": name, "values": values, "numeric_values": numeric})
    family = raw.get("maximal_family", [])
    if not isinstance(family, list) or not all(isinstance(n, str) for n in family):
        problems.append("maximal_family: must be a list of variable names")
        family = []
    for name in family:
        if name not in seen_names:
            problems.append(f"maximal_family: undefined variable {name!r}")
    pairs_raw = raw.get("pairs", [])
    pairs: list[DocumentPair] = []
    if not isinstance(pairs_raw, list):
        problems.append("pairs: must be a list")
        pairs_raw = []
    for i, p in enumerate(pairs_raw):
        if not isinstance(p, dict):
            problems.append(f"pairs[{i}]: must be an object")
            continue
        theta, xi = p.get("theta"), p.get("xi")
        for ref in (theta, xi):
            if not isinstance(ref, str) or ref not in seen_names:
                problems.append(f"pairs[{i}]: undefined variable {ref!r}")
        k = p.get("k")
        word, perm = None, None
        if isinstance(k, str):
            word = k
            for part in k.split():
                if part not in names:
                    problems.append(f"pairs[{i}]: word element {part!r} is not a generator name")
        elif isinstance(k, list):
            if not _is_permutation(k, size):
                problems.append(f"pairs[{i}]: k is not a permutation of {size} points")
            else:
                perm = tuple(k)
        else:
            problems.append(f"pairs[{i}]: k must be a generator word or a permutation")
        pairs.append(DocumentPair(str(theta), str(xi), word, perm))
    options = raw.get("options", {})
    if not isinstance(options, dict):
        problems.append("options: must be an object")
        options = {}
    opts = {}
    for key, (default, valid, expected) in _OPTIONS.items():
        opts[key] = options.get(key, default)
        if not valid(opts[key]):
            problems.append(f"options: field {key!r} must be {expected}")
    if size <= 0:
        problems.append("phi_space: size must be positive")
    if problems:
        raise SchemaError(problems)
    return ContextDocument(
        version, size, tuple(labels) if labels else None,
        tuple(gens), tuple(names), tuple(vars_out), tuple(family),
        tuple(pairs), float(opts["tolerance"]), opts["fiducial_index"],
        opts["max_order"], opts["spin_suite"],
    )


def _resolve_word(doc: ContextDocument, word: str) -> tuple[int, ...]:
    """Word factors multiply left to right, so "a b" applies b first."""
    perms = dict(zip(doc.generator_names, doc.generators))
    return functools.reduce(compose, (perms[part] for part in word.split()),
                            tuple(range(doc.phi_size)))


def _fiducial(doc: ContextDocument, dim: int) -> np.ndarray:
    """Basis vector at the document's fiducial index, clamped to the last one."""
    fid = np.zeros(dim, dtype=complex)
    fid[min(doc.fiducial_index, dim - 1)] = 1.0
    return fid


def _build_variables(doc: ContextDocument) -> dict[str, ConceptualVariable]:
    out: dict[str, ConceptualVariable] = {}
    for entry in doc.variables:
        out[entry["name"]] = make_variable(
            entry["name"],
            [tuple(v) if isinstance(v, list) else v for v in entry["values"]],
            numeric_values=entry["numeric_values"],
        )
    return out


def run_verify(doc: ContextDocument, context_name: str = "document") -> VerificationReport:
    """Execute the full check chain on a parsed document."""
    report = VerificationReport(context_name, doc.tolerance)
    checks = report.checks

    try:
        k_group, k_action = generate_permutation_group(
            doc.generators, space_size=doc.phi_size, order_bound=doc.max_order
        )
    except (SizeLimit, CvhilbertError) as exc:
        checks.append(CheckRecord("group-axioms", "group-axioms", "fail", detail=str(exc)))
        return report
    checks.append(CheckRecord("group-axioms", "group-axioms", "pass",
                              detail=f"order={k_group.order}"))
    checks.append(CheckRecord("action-axioms", "action-axioms", "pass",
                              detail=f"points={k_action.space_size}"))

    try:
        var_map = _build_variables(doc)
    except ValueError as exc:
        checks.append(CheckRecord("variables", "variable-tables", "fail", detail=str(exc)))
        return report
    family = tuple(var_map[name] for name in doc.maximal_family)
    context = Context(doc.phi_size, k_action, family)

    permissible: dict[str, bool] = {}
    induced: dict[str, tuple] = {}
    for name, var in var_map.items():
        ok, witness = variables.is_permissible(var, k_action)
        permissible[name] = ok
        if ok:
            checks.append(CheckRecord(f"permissibility[{name}]", "level-set-preservation", "pass"))
            g_group, g_action, hom = variables.induced_group(var, k_action)
            induced[name] = (g_group, g_action, hom)
            checks.append(CheckRecord(
                f"induced-group[{name}]", "induced-value-group", "pass",
                detail=f"order={g_group.order}"))
        else:
            k, p1, p2 = witness
            checks.append(CheckRecord(
                f"permissibility[{name}]", "level-set-preservation", "fail",
                witness=f"k={k} p1={p1} p2={p2}"))
            checks.append(CheckRecord(
                f"induced-group[{name}]", "induced-value-group", "skip",
                detail="variable not permissible"))

    for name in doc.maximal_family:
        is_max = variables.is_maximally_accessible(context, var_map[name])
        checks.append(CheckRecord(
            f"maximality[{name}]", "no-strict-accessible-refinement",
            "pass" if is_max else "fail"))

    for idx, dpair in enumerate(doc.pairs):
        theta = var_map[dpair.theta]
        xi = var_map[dpair.xi]
        k_perm = dpair.k_perm
        if k_perm is None and dpair.k_word is not None:
            k_perm = _resolve_word(doc, dpair.k_word)
        try:
            pair = pairing.build_related_pair(context, theta, xi, k_perm)
        except (NotRelated, NotMaximal, InvolutionViolation) as exc:
            checks.append(CheckRecord(f"relatedness[{idx}]", "relating-transformation",
                                      "fail", detail=str(exc)))
            continue
        checks.append(CheckRecord(f"relatedness[{idx}]", "relating-transformation", "pass"))
        checks.append(CheckRecord(
            f"involution[{idx}]", "square-of-relating-transformation",
            "pass", detail=f"k_squared_identity={pair.k_squared_identity}"))
        if not permissible.get(dpair.theta, False):
            checks.append(CheckRecord(f"joint-group[{idx}]", "joined-group", "skip",
                                      detail="first variable not permissible"))
            continue
        _verify_pair_chain(report, doc, idx, pair, induced[dpair.theta])

    if doc.spin_suite:
        _spin_suite(report)
    return report


def _verify_pair_chain(report, doc, idx, pair, induced_triple):
    checks = report.checks
    g_group, g_action, _ = induced_triple
    try:
        joint = pairing.build_joint_group(pair, g_group, g_action, doc.max_order)
    except CvhilbertError as exc:
        checks.append(CheckRecord(f"joint-group[{idx}]", "joined-group", "fail",
                                  detail=str(exc)))
        return
    checks.append(CheckRecord(
        f"joint-group[{idx}]", "joined-group", "pass",
        detail=f"order={joint.group.order} points={joint.action.space_size}"))

    try:
        base_rep = representations.regular_representation(g_group, doc.tolerance)
        swap_matrix = pairing.build_swap_matrix(base_rep)
        joint_rep, words = pairing.build_joint_representation(joint, base_rep, swap_matrix)
    except (NotWellDefined, SizeLimit) as exc:
        detail = f"not evaluated: {exc}" if isinstance(exc, SizeLimit) else str(exc)
        checks.append(CheckRecord(f"well-defined-extension[{idx}]",
                                  "generator-assignment-extends", "fail", detail=detail))
        return
    checks.append(CheckRecord(f"well-defined-extension[{idx}]",
                              "generator-assignment-extends", "pass"))

    dim = representations.commutant_dimension(joint_rep)
    checks.append(CheckRecord(f"irreducibility[{idx}]", "trivial-commutant",
                              "pass" if dim == 1 else "fail", detail=f"commutant_dim={dim}"))

    try:
        system = pairing.joint_coset_structure(pair, joint, base_rep, swap_matrix, joint_rep,
                                               words, _fiducial(doc, base_rep.dim))
    except CosetLabelingError as exc:
        checks.append(CheckRecord(f"coset-labels[{idx}]", "axis-factorization",
                                  "fail", detail=str(exc)))
        return
    checks.append(CheckRecord(
        f"coset-labels[{idx}]", "axis-factorization", "pass",
        detail=f"cosets={len(system.coherent.cosets)} isotropy={system.coherent.isotropy.order}"))

    injective, collision = coherent.one_to_one_check(system.coherent)
    checks.append(CheckRecord(
        f"state-injectivity[{idx}]", "values-to-states",
        "pass" if injective else "fail",
        witness=None if injective else f"elements {collision}"))

    res = system.coherent.resolution
    checks.append(CheckRecord(
        f"resolution-of-identity[{idx}]", "projector-sum-identity",
        "pass" if res.ok else "fail", residual=_num(res.residual),
        detail=f"c={_fmt(res.constant)}"))
    if not res.ok:
        return

    try:
        theta_vals = pair.theta.numeric()
        xi_vals = pair.xi.numeric()
    except ValueError as exc:
        checks.append(CheckRecord(
            f"operator-construction[{idx}]", "weighted-projector-operators",
            "skip", detail=str(exc)))
        return
    a_theta, a_xi = pairing.joint_operators(system, theta_vals, xi_vals)
    unit = coherent.operator_from_variable(system.coherent, np.ones(len(system.x_index)))
    unit_residual = float(np.abs(unit.matrix - np.eye(system.dim)).max())
    checks.append(CheckRecord(
        f"operator-construction[{idx}]", "weighted-projector-operators",
        "pass" if unit_residual <= doc.tolerance else "fail",
        residual=_num(unit_residual), detail="unit variable gives identity"))

    eig_theta = spectra.eigensystem(a_theta)
    eig_xi = spectra.eigensystem(a_xi)
    for var, eig in ((pair.theta, eig_theta), (pair.xi, eig_xi)):
        report.operators.append({
            "pair": idx,
            "variable": var.name,
            "matrix": _matrix_payload(eig.operator.matrix),
            "eigenvalues": [_num(v) for v in eig.spectrum],
        })
        ok = spectra.verify_values_are_eigenvalues(eig, var)
        checks.append(CheckRecord(
            f"eigenvalue-value-match[{idx}][{var.name}]", "spectrum-equals-values",
            "pass" if ok else "fail"))
        ok2 = spectra.verify_maximality_iff_nondegenerate(pair.context, var, eig)
        checks.append(CheckRecord(
            f"maximality-nondegeneracy[{idx}][{var.name}]",
            "maximal-iff-multiplicity-free", "pass" if ok2 else "fail"))
        for qa in spectra.question_answer_labels(eig, var):
            report.question_answers.append({
                "pair": idx,
                "variable": qa.variable,
                "value": qa.value_label,
                "numeric": _num(qa.numeric_value),
                "rank": qa.rank,
                "vector": _vector_payload(qa.eigenvector) if qa.eigenvector is not None else None,
            })

    records = pairing.covariance_records(system, theta_vals, xi_vals)
    for rec in records:
        if rec.ok:
            status, detail = "pass", None
        elif rec.obstructed:
            status = "skip"
            detail = "transport undefined: value motion not resolved by matrices (scalar collision)"
        else:
            status, detail = "fail", None
        checks.append(CheckRecord(
            f"conjugation-covariance[{idx}][t={rec.element}]", "operator-transport",
            status, residual=_num(rec.residual), detail=detail))

    if eig_theta.degenerate or eig_xi.degenerate:
        checks.append(CheckRecord(f"transition-unitarity[{idx}]", "basis-change",
                                  "skip", detail="degenerate spectrum"))
    else:
        t = spectra.transition_matrix(eig_theta, eig_xi)
        resid = float(np.abs(t @ t.conj().T - np.eye(system.dim)).max())
        checks.append(CheckRecord(
            f"transition-unitarity[{idx}]", "basis-change",
            "pass" if resid <= doc.tolerance else "fail", residual=_num(resid)))


def _spin_suite(report: VerificationReport) -> None:
    checks = report.checks
    for twice_r in (1, 2, 3, 4, 5):
        r = twice_r / 2
        sr = spin.build_spin(r)
        resid = spin.verify_commutation(sr)
        checks.append(CheckRecord(
            f"spin-commutation[r={r}]", "ladder-commutators",
            "pass" if resid <= 1e-12 else "fail", residual=_num(resid)))
        ok = spin.verify_eigen(sr)
        checks.append(CheckRecord(
            f"spin-eigen[r={r}]", "basis-eigenvalues",
            "pass" if ok and sr.dim == twice_r + 1 else "fail",
            detail=f"dim={sr.dim}"))
    for n in range(3, 13):
        ok = spin.planar_component_covariance(n)
        checks.append(CheckRecord(
            f"planar-covariance[n={n}]", "rotated-component-equalities",
            "pass" if ok else "fail"))
    _, _, witness, axes = spin.full_rotation_counterexample()
    checks.append(CheckRecord(
        "full-rotation-witness", "axis-component-obstruction", "pass",
        witness=f"k={witness[0]} points=({axes[0]},{axes[1]})"))


def emit_report(report: VerificationReport, fmt: str = "text") -> str:
    if fmt == "structured":
        return json.dumps(_report_payload(report), indent=2, sort_keys=False) + "\n"
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
        vec = ""
        if qa["vector"] is not None:
            vec = " vector=" + _pair_rows([qa["vector"]], " ")[0]
        lines.append(
            f"question variable={qa['variable']} answer={qa['value']} "
            f"numeric={_fmt(qa['numeric'])} rank={qa['rank']}{vec}"
        )
    p, f, s = report.counts()
    lines.append(f"summary: checks={len(report.checks)} pass={p} fail={f} skip={s}")
    return "\n".join(lines) + "\n"


def _report_payload(report: VerificationReport) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "context": report.context_name,
        "tolerance": _num(report.tolerance),
        "seeds": None,
        "checks": [
            {
                "id": c.cid,
                "anchor": c.anchor,
                "status": c.status,
                "residual": c.residual,
                "witness": c.witness,
                "detail": c.detail,
            }
            for c in report.checks
        ],
        "operators": report.operators,
        "question_answers": report.question_answers,
        "summary": dict(zip(("pass", "fail", "skip"), report.counts())),
    }


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


def _write_report(report: VerificationReport, fmt: str) -> int:
    sys.stdout.write(emit_report(report, fmt))
    return 2 if report.failed else 0


def _cmd_verify(args) -> int:
    doc = parse_context(args.file)
    doc = _apply_overrides(doc, args)
    return _write_report(run_verify(doc, context_name=args.file), args.format)


def _cmd_demo(args) -> int:
    if args.name != "two-bit":
        print(f"unknown demo {args.name!r}", file=sys.stderr)
        return 1
    doc = document_from_mapping(two_bit_document())
    doc = _apply_overrides(doc, args)
    return _write_report(run_verify(doc, context_name="demo:two-bit"), args.format)


def _cmd_operator(args) -> int:
    doc = parse_context(args.file)
    doc = _apply_overrides(doc, args)
    _, k_action = generate_permutation_group(
        doc.generators, space_size=doc.phi_size, order_bound=doc.max_order
    )
    try:
        var_map = _build_variables(doc)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    if args.variable not in var_map:
        print(f"undefined variable {args.variable!r}", file=sys.stderr)
        return 1
    var = var_map[args.variable]
    ok, witness = variables.is_permissible(var, k_action)
    if not ok:
        print(f"variable {var.name} is not permissible: witness {witness}", file=sys.stderr)
        return 2
    g_group, g_action, _ = variables.induced_group(var, k_action)
    base_rep = representations.regular_representation(g_group, doc.tolerance)
    system = coherent.build_coherent_system(base_rep, _fiducial(doc, base_rep.dim))
    res = system.resolution
    lines = [
        f"operator for {var.name}",
        f"induced group order: {g_group.order}",
        f"resolution constant: {_fmt(res.constant)} residual: {_fmt(res.residual)} "
        f"pass: {res.ok}",
    ]
    if not res.ok:
        lines.append("operator not constructed: resolution of identity fails")
        sys.stdout.write("\n".join(lines) + "\n")
        return 2
    try:
        numeric = var.numeric()
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    points = [g_action.apply(r, 0) for r in system.cosets.representatives]
    op = coherent.operator_from_variable(system, [numeric[p] for p in points], var.name)
    lines.append("matrix:")
    lines.extend("  " + row for row in _pair_rows(
        np.stack([op.matrix.real, op.matrix.imag], axis=-1), "  "))
    eig = spectra.eigensystem(op)
    lines.append("eigenvalues: " + " ".join(_fmt(v) for v in eig.eigenvalues))
    for qa in spectra.question_answer_labels(eig, var):
        lines.append(f"question value={qa.value_label} numeric={_fmt(qa.numeric_value)} rank={qa.rank}")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _cmd_pair(args) -> int:
    doc = parse_context(args.file)
    doc = _apply_overrides(doc, args)
    if not 0 <= args.pair < len(doc.pairs):
        print(f"pair index {args.pair} out of range", file=sys.stderr)
        return 1
    doc = replace(doc, pairs=(doc.pairs[args.pair],), spin_suite=False)
    return _write_report(run_verify(doc, context_name=f"{args.file}#pair{args.pair}"),
                         args.format)


def _cmd_spin(args) -> int:
    try:
        sr = spin.build_spin(args.r)
    except CvhilbertError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    resid = spin.verify_commutation(sr)
    eigen_ok = spin.verify_eigen(sr)
    lines = [
        f"spin r={args.r}",
        f"dimension: {sr.dim}",
        f"commutation residual: {_fmt(resid)}",
        f"eigen relations: {'pass' if eigen_ok else 'fail'}",
    ]
    full_turn = spin.rotation_operator(sr, (0.0, 0.0, 1.0), 2 * np.pi)
    sign = -1.0 if sr.dim % 2 == 0 else 1.0
    flip_resid = float(np.abs(full_turn - sign * np.eye(sr.dim)).max())
    lines.append(
        f"full-turn sign: {'-1' if sign < 0 else '+1'} residual: {_fmt(flip_resid)}"
    )
    ok = resid <= 1e-12 and eigen_ok and flip_resid <= 1e-10
    lines.append(f"summary: {'pass' if ok else 'fail'}")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0 if ok else 2


def main(argv=None) -> int:
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
    p_verify.set_defaults(func=_cmd_verify)

    p_operator = sub.add_parser("operator", help="single-variable operator report")
    p_operator.add_argument("file")
    p_operator.add_argument("--variable", required=True)
    common(p_operator)
    p_operator.set_defaults(func=_cmd_operator)

    p_pair = sub.add_parser("pair", help="joint construction report for one pair")
    p_pair.add_argument("file")
    p_pair.add_argument("--pair", type=int, required=True)
    reporting(p_pair)
    p_pair.set_defaults(func=_cmd_pair)

    p_spin = sub.add_parser("spin", help="spin matrix suite")
    p_spin.add_argument("--r", type=float, required=True)
    p_spin.set_defaults(func=_cmd_spin)

    p_demo = sub.add_parser("demo", help="run a built-in demonstration document")
    p_demo.add_argument("name")
    reporting(p_demo)
    p_demo.set_defaults(func=_cmd_demo)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, SchemaError) as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except CvhilbertError as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
