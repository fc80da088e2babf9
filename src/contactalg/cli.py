"""Command line front end.

Two tiny text formats come in, deterministic plain-text reports go out.

Algebra files::

    # comment
    atoms: 6
    contact: 0 1
    contact: 1 1
    bounded: {0,1,2}

`contact:` lines list exactly the atom pairs that are related; nothing
is closed implicitly (precontact inputs stay representable). Pass
`--close rs` to take the reflexive-symmetric closure. `bounded:`, given
at most once, names the atom set of the bounded ideal's top and
defaults to all atoms.

Space files::

    points: 4
    open: {0}
    open: {0,1}

The empty set and the whole space are implied; the family must already
be closed under union and intersection or the file is rejected. A map
file for `space lambda-t` is a space file (the target) plus `map: i j`
lines sending source point i to target point j.

Exit codes: 0 all checks passed, 1 some reported property failed,
2 malformed input, 3 an internal inconsistency (a bug in this package).
"""

from __future__ import annotations

import argparse
import itertools
import sys
from dataclasses import dataclass

from .boolean import Element, powerset_algebra
from .contact import (
    AXIOM_NAMES,
    ContactAlgebra,
    ContactStructure,
    all_contact_structures,
    check_axiom,
    is_connected,
)
from .dimension import DimensionQuery, dim_a, dim_leq, query
from .errors import InternalInconsistencyError, ValidationError
from .lca import LCA_AXIOM_NAMES, LocalContactAlgebra, check_lca_axiom, product_lca, relative_lca
from .topology import (
    DEFAULT_MAX_POINTS,
    ContinuousMap,
    FiniteSpace,
    clopen_sets,
    dim_cl,
    is_connected_space,
    is_pi_semiregular,
    lambda_t_map,
    pi_weight_of_space,
    rc_algebra,
    ro_algebra,
    weight_of_space,
)
from .weight import algebra_weight, pi_weight


class CliInputError(Exception):
    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line


def _fmt_set(mask: int) -> str:
    bits = []
    i = 0
    while mask:
        if mask & 1:
            bits.append(str(i))
        mask >>= 1
        i += 1
    return "{" + ",".join(bits) + "}"


def _fmt_element(x: Element) -> str:
    return _fmt_set(x.mask)


def _fmt_witness(witness) -> str:
    return ",".join(_fmt_element(x) for x in witness)


def _parse_set(text: str, line: int, limit: int, what: str) -> int:
    """Parse {i,j,...} into a bitmask; each member must lie in range(limit).

    The range is checked before the shift, so a huge member is refused
    instead of building a huge integer.
    """
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise CliInputError(f"expected a set like {{0,1}}, got {text!r}", line)
    body = text[1:-1].strip()
    mask = 0
    if body:
        for part in body.split(","):
            try:
                i = int(part.strip())
            except ValueError:
                raise CliInputError(f"bad set member {part.strip()!r}", line) from None
            if not 0 <= i < limit:
                raise CliInputError(f"{what} out of range", line)
            mask |= 1 << i
    return mask


def _content_lines(text: str):
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield i, line


def parse_algebra_file(text: str, close: str | None = None, cap_atoms: int = 8) -> LocalContactAlgebra:
    atoms: int | None = None
    pairs: list[tuple[int, int]] = []
    bounded_mask: int | None = None
    for i, line in _content_lines(text):
        if line.startswith("atoms:"):
            if atoms is not None:
                raise CliInputError("duplicate atoms: header", i)
            try:
                atoms = int(line[len("atoms:"):].strip())
            except ValueError:
                raise CliInputError("atoms: needs an integer", i) from None
            if atoms < 0:
                raise CliInputError("atom count cannot be negative", i)
            if atoms > cap_atoms:
                raise CliInputError(
                    f"atom count {atoms} exceeds the cap {cap_atoms} (raise with --cap-atoms)", i
                )
        elif line.startswith("contact:"):
            if atoms is None:
                raise CliInputError("contact: before atoms:", i)
            parts = line[len("contact:"):].split()
            if len(parts) != 2:
                raise CliInputError("contact: needs two atom indices", i)
            try:
                p, q = int(parts[0]), int(parts[1])
            except ValueError:
                raise CliInputError("contact: needs integer indices", i) from None
            if not (0 <= p < atoms and 0 <= q < atoms):
                raise CliInputError(f"contact pair ({p},{q}) out of range", i)
            pairs.append((p, q))
        elif line.startswith("bounded:"):
            if atoms is None:
                raise CliInputError("bounded: before atoms:", i)
            if bounded_mask is not None:
                raise CliInputError("duplicate bounded: line", i)
            bounded_mask = _parse_set(line[len("bounded:"):], i, atoms, "bounded: atom")
        else:
            raise CliInputError(f"unrecognized line {line!r}", i)
    if atoms is None:
        raise CliInputError("missing atoms: header")
    rows = [0] * atoms
    for p, q in pairs:
        rows[p] |= 1 << q
    if close == "rs":
        for p in range(atoms):
            rows[p] |= 1 << p
        for p in range(atoms):
            for q in range(atoms):
                if rows[p] >> q & 1:
                    rows[q] |= 1 << p
    elif close is not None:
        raise CliInputError(f"unknown closure {close!r} (only 'rs')")
    alg = powerset_algebra(atoms)
    ca = ContactAlgebra(alg, ContactStructure(alg, rows))
    top = alg.one if bounded_mask is None else Element(alg, bounded_mask)
    return LocalContactAlgebra(ca, top)


def algebra_file_text(L: LocalContactAlgebra, comment: str) -> str:
    k = L.algebra.atom_count
    out = [f"# {comment}", f"atoms: {k}"]
    rows = L.ca.contact.rows
    for p in range(k):
        for q in range(k):
            if rows[p] >> q & 1:
                out.append(f"contact: {p} {q}")
    out.append(f"bounded: {_fmt_set(L.bounded_top.mask)}")
    return "\n".join(out) + "\n"


def parse_space_file(text: str):
    points: int | None = None
    opens: set[int] = set()
    maps: list[tuple[int, int, int]] = []
    for i, line in _content_lines(text):
        if line.startswith("points:"):
            if points is not None:
                raise CliInputError("duplicate points: header", i)
            try:
                points = int(line[len("points:"):].strip())
            except ValueError:
                raise CliInputError("points: needs an integer", i) from None
            if points < 0:
                raise CliInputError("point count cannot be negative", i)
            if points > DEFAULT_MAX_POINTS:
                raise CliInputError(f"point count {points} exceeds the cap {DEFAULT_MAX_POINTS}", i)
        elif line.startswith("open:"):
            if points is None:
                raise CliInputError("open: before points:", i)
            mask = _parse_set(line[len("open:"):], i, points, "open: point")
            opens.add(mask)
        elif line.startswith("map:"):
            parts = line[len("map:"):].split()
            if len(parts) != 2:
                raise CliInputError("map: needs two point indices", i)
            try:
                maps.append((int(parts[0]), int(parts[1]), i))
            except ValueError:
                raise CliInputError("map: needs integer indices", i) from None
        else:
            raise CliInputError(f"unrecognized line {line!r}", i)
    if points is None:
        raise CliInputError("missing points: header")
    opens |= {0, (1 << points) - 1}
    try:
        space = FiniteSpace(points, opens)
    except ValidationError as e:
        raise CliInputError(str(e)) from None
    return space, maps


@dataclass
class Report:
    lines: list[str]
    failed: bool = False

    def emit(self, line: str):
        self.lines.append(line)

    def prop(self, name: str, ok: bool, witness: str = ""):
        if ok:
            self.lines.append(f"PROP {name} PASS")
        else:
            self.failed = True
            suffix = f" {witness}" if witness else ""
            self.lines.append(f"PROP {name} FAIL{suffix}")


def _read(path: str) -> str:
    try:
        with open(path, "rb") as fh:
            return fh.read().decode("utf-8")
    except OSError as e:
        raise CliInputError(f"cannot read {path}: {e.strerror}") from None
    except UnicodeDecodeError:
        raise CliInputError(f"cannot read {path}: not UTF-8 text") from None


def _cmd_check(args, report: Report):
    L = parse_algebra_file(_read(args.algebra), args.close, args.cap_atoms)
    for name in AXIOM_NAMES:
        r = check_axiom(L.ca, name)
        report.prop(name, r.ok, f"witness={_fmt_witness(r.witness)}" if not r.ok else "")
    for name in LCA_AXIOM_NAMES:
        r = check_lca_axiom(L, name)
        report.prop(name, r.ok, f"witness={_fmt_witness(r.witness)}" if not r.ok else "")


def _parse_subset(text: str, L: LocalContactAlgebra) -> tuple[Element, ...]:
    alg = L.algebra
    members = {alg.zero, alg.one}
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        mask = _parse_set(part, 0, alg.atom_count, f"subset member {part}")
        members.add(Element(alg, mask))
    return tuple(sorted(members, key=lambda x: x.mask))


def _cmd_dim(args, report: Report):
    L = parse_algebra_file(_read(args.algebra), args.close, args.cap_atoms)
    if args.subset is not None:
        members = _parse_subset(args.subset, L)
        q = DimensionQuery(L.ca, members, args.max_n)
    else:
        q = query(L.ca, None, args.max_n)
    result = dim_a(q, scan_to_cap=args.scan)
    for n, verdict in result.verdicts:
        if verdict:
            report.emit(f"dim_leq({n}) = true")
        else:
            v = dim_leq(q, n)
            detail = ""
            if v.a_tuple:
                a = ";".join(_fmt_element(x) for x in v.a_tuple)
                b = ";".join(_fmt_element(x) for x in v.b_tuple)
                detail = f" counterexample a={a} b={b}"
            report.emit(f"dim_leq({n}) = false{detail}")
    report.emit(f"dim_a = {result.display}")
    if args.scan:
        if result.anomalies:
            pairs = ";".join(f"true_at={i},false_at={j}" for i, j in result.anomalies)
            report.prop("dim_monotone", False, pairs)
        else:
            report.prop("dim_monotone", True)


def _cmd_weight(args, report: Report):
    L = parse_algebra_file(_read(args.algebra), args.close, args.cap_atoms)
    result = algebra_weight(L)
    report.emit(f"w_a = {result.size}")
    report.emit("base = " + " ".join(_fmt_element(x) for x in result.base))


def _cmd_piweight(args, report: Report):
    L = parse_algebra_file(_read(args.algebra), args.close, args.cap_atoms)
    report.emit(f"piw_a = {pi_weight(L.algebra)}")


def _cmd_product(args, report: Report):
    factors = [
        parse_algebra_file(_read(path), args.close, args.cap_atoms)
        for path in args.algebras
    ]
    if sum(F.algebra.atom_count for F in factors) > args.cap_atoms:
        raise CliInputError(f"product exceeds the atom cap {args.cap_atoms}")
    prod = product_lca(factors)
    report.emit(algebra_file_text(prod.lca, "product of " + ", ".join(args.algebras)).rstrip("\n"))


def _cmd_relative(args, report: Report):
    L = parse_algebra_file(_read(args.algebra), args.close, args.cap_atoms)
    mask = _parse_set(args.at, 0, L.algebra.atom_count, "--at atom")
    if mask == 0:
        raise CliInputError("--at needs a nonempty atom set")
    rel = relative_lca(L, Element(L.algebra, mask))
    report.emit(
        algebra_file_text(rel.lca, f"relative algebra of {args.algebra} at {args.at}").rstrip("\n")
    )


def _cmd_space(args, report: Report):
    space, _ = parse_space_file(_read(args.space))
    what = args.what
    if what == "rc":
        rc = rc_algebra(space)
        report.emit(f"RC atoms: {rc.algebra.atom_count}")
        report.emit("RC sets: " + " ".join(_fmt_set(s) for s in rc.regular_closed_sets()))
    elif what == "ro":
        ro = ro_algebra(space)
        report.emit(f"RO atoms: {ro.algebra.atom_count}")
        report.emit("RO sets: " + " ".join(_fmt_set(s) for s in ro.regular_open_sets()))
        for i, a in enumerate(ro.atom_sets):
            image = ro.rc.to_set(ro.nu(Element(ro.algebra, 1 << i)))
            report.emit(f"nu: {_fmt_set(a)} -> {_fmt_set(image)}")
        report.prop("ro_isomorphic_rc", True)
    elif what == "dim":
        value = dim_cl(space, n_cap=args.max_n)
        report.emit(f"dim_CL = {value if value is not None else f'>{args.max_n}'}")
    elif what == "weight":
        report.emit(f"w = {weight_of_space(space)}")
    elif what == "piweight":
        report.emit(f"piw = {pi_weight_of_space(space)}")
    elif what == "connected":
        report.emit(f"connected = {'true' if is_connected_space(space) else 'false'}")
    elif what == "lambda-t":
        if args.map is None:
            raise CliInputError("space lambda-t needs a map file")
        target, map_lines = parse_space_file(_read(args.map))
        if not map_lines:
            raise CliInputError("map file has no map: lines")
        point_map = [None] * space.point_count
        for p, q, line in map_lines:
            if not 0 <= p < space.point_count:
                raise CliInputError(f"map: source point {p} out of range", line)
            if not 0 <= q < target.point_count:
                raise CliInputError(f"map: target point {q} out of range", line)
            if point_map[p] is not None:
                raise CliInputError(f"map: source point {p} mapped twice", line)
            point_map[p] = q
        if any(q is None for q in point_map):
            missing = point_map.index(None)
            raise CliInputError(f"map: source point {missing} unmapped")
        try:
            f = ContinuousMap(space, target, point_map)
        except ValidationError as e:
            raise CliInputError(str(e)) from None
        t_rc = rc_algebra(target)
        s_rc = rc_algebra(space)
        table = lambda_t_map(f, t_rc, s_rc)
        for m in range(t_rc.algebra.size):
            g = t_rc.to_set(Element(t_rc.algebra, m))
            image = s_rc.to_set(table(Element(t_rc.algebra, m)))
            report.emit(f"lambda_t: {_fmt_set(g)} -> {_fmt_set(image)}")
    else:  # pragma: no cover - _exact_value and argparse both check `what` against its choices
        raise CliInputError(f"unknown space query {what!r}")


def _orbit_classes(structures, k: int) -> list[tuple[str, ContactStructure]]:
    """(canonical string, first member met) per relabelling orbit, in order
    of first appearance. A permutation pi of the atoms acts by
    (pi.R)(p, q) = R(pi p, pi q), a group action that maps the enumerated
    set (every relation, or every reflexive symmetric one) to itself. The
    string of R under pi (row-major bits) is the identity string of pi.R,
    so the least string over pi is the same on a whole orbit and differs
    between orbits. Hence the first member met is relabelled k! times,
    once; every image is marked seen, and later members cost one lookup.
    Row p of pi.R is tables[i][R[pi p]]: tables[i][m] is m with bit pi q
    moved to bit q, for the i-th permutation pi."""
    perms = list(itertools.permutations(range(k)))
    tables = [[sum((m >> pi[q] & 1) << q for q in range(k)) for m in range(1 << k)] for pi in perms]
    text = ["".join("1" if m >> q & 1 else "0" for q in range(k)) for m in range(1 << k)]
    seen: set[tuple[int, ...]] = set()
    classes = []
    for structure in structures:
        rows = structure.rows
        if rows in seen:
            continue
        images = [tuple(table[rows[p]] for p in pi) for pi, table in zip(perms, tables)]
        seen.update(images)
        classes.append((min("".join([text[r] for r in image]) for image in images), structure))
    return classes


def _cmd_search(args, report: Report):
    if args.atoms < 1 or args.atoms > 6:
        raise CliInputError("search supports --atoms 1..6")
    rs = args.contact_class == "reflexive-symmetric"
    if not rs and args.atoms > 4:
        raise CliInputError("search --contact-class all supports --atoms 1..4")
    for k in range(1, args.atoms + 1):
        alg = powerset_algebra(k)
        rows_list = _orbit_classes(all_contact_structures(alg, reflexive_symmetric=rs), k)
        rows_list.sort(key=lambda t: t[0])
        for canon, structure in rows_list:
            ca = ContactAlgebra(alg, structure)
            bundles = []
            if ca.is_precontact:
                bundles.append("PCA")
            if ca.is_contact:
                bundles.append("CA")
            if ca.is_extensional:
                bundles.append("ECA")
            if ca.is_normal:
                bundles.append("NCA")
            connected = "yes" if is_connected(ca) else "no"
            result = dim_a(query(ca, None, args.max_n))
            if ca.is_contact:
                w = str(algebra_weight(LocalContactAlgebra(ca, alg.one)).size)
            else:
                w = "-"
            report.emit(
                f"atoms={k} rel={canon} bundles={','.join(bundles) or '-'} "
                f"connected={connected} dim_a={result.display} w_a={w}"
            )


def _cmd_crosscheck(args, report: Report):
    space, _ = parse_space_file(_read(args.space))

    def guarded(name: str, fn):
        try:
            ok, witness = fn()
        except InternalInconsistencyError as e:
            report.prop(name, False, f"internal={e}")
            return
        report.prop(name, ok, witness)

    def rc_built():
        rc_algebra(space)
        return True, ""

    guarded("rc_boolean_algebra", rc_built)

    def ro_iso():
        ro_algebra(space)
        return True, ""

    guarded("ro_isomorphic_rc", ro_iso)

    def connect():
        return is_connected_space(space) == (len(clopen_sets(space)) <= 2), ""

    guarded("connectedness_agreement", connect)

    def valid_iff_discrete():
        valid = rc_algebra(space).lca.is_valid()
        return valid == space.is_discrete, f"valid={valid} discrete={space.is_discrete}"

    guarded("rc_valid_iff_discrete", valid_iff_discrete)

    def pi_agree():
        if not is_pi_semiregular(space):
            return True, ""
        return pi_weight_of_space(space) == pi_weight(rc_algebra(space).algebra), ""

    guarded("pi_weight_agreement", pi_agree)

    def dim_agree():
        if not space.is_discrete:
            return True, ""
        d_top = dim_cl(space, n_cap=1)
        d_alg = dim_a(query(rc_algebra(space).ca, None, 1)).value
        expected = -1 if space.point_count == 0 else 0
        return d_top == expected and d_alg == expected, f"dim_CL={d_top} dim_a={d_alg}"

    guarded("discrete_dim_agreement", dim_agree)

    def lt_identity():
        rc = rc_algebra(space)
        table = lambda_t_map(ContinuousMap.identity(space), rc, rc)
        return table.mapping == tuple(range(rc.algebra.size)), ""

    guarded("lambda_t_identity", lt_identity)


def build_parser() -> tuple[argparse.ArgumentParser, tuple]:
    """The argparse parser, and the grammar `_exact_args` reads: the
    Action objects the parser's own add_argument calls returned."""
    parser = argparse.ArgumentParser(
        prog="contactalg",
        description="Finite contact algebra toolkit: axiom checks, dimension, weight, and a finite-topology oracle.",
    )
    cap = parser.add_argument(
        "--cap-atoms",
        type=int,
        default=8,
        help="largest atom count accepted from input files (default 8)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}

    def command(name, help):
        """Add subcommand `name`; return its add_argument, which keeps each Action."""
        p = sub.add_parser(name, help=help)
        actions = commands[name] = []
        return lambda *names, **kw: actions.append(p.add_argument(*names, **kw))

    def add_algebra(arg):
        arg("algebra", help="algebra file")
        arg("--close", choices=["rs"], default=None, help="apply reflexive-symmetric closure")

    add_algebra(command("check", help="axiom bundle report for an algebra file"))

    arg = command("dim", help="algebraic dimension")
    add_algebra(arg)
    arg("--max-n", type=int, default=3, help="largest n to test (default 3)")
    arg("--subset", default=None, help="witness pool D as ;-separated atom sets (0 and 1 are always included)")
    arg("--scan", action="store_true", help="evaluate every n up to the cap and report monotonicity")

    add_algebra(command("weight", help="minimum base cardinality"))
    add_algebra(command("piweight", help="minimum dense subset cardinality"))

    arg = command("product", help="emit the product algebra as a file")
    arg("algebras", nargs="+", help="factor algebra files")
    arg("--close", choices=["rs"], default=None)

    arg = command("relative", help="emit the relative algebra below an atom set")
    add_algebra(arg)
    arg("--at", required=True, help="atom set like {0,1,2}")

    arg = command("space", help="finite-topology oracle queries")
    arg("what", choices=["rc", "ro", "dim", "weight", "piweight", "connected", "lambda-t"])
    arg("space", help="space file")
    arg("map", nargs="?", default=None, help="map file (lambda-t only)")
    arg("--max-n", type=int, default=3)

    arg = command("search", help="enumerate small atom relations and tabulate invariants")
    arg("--atoms", type=int, required=True, help="enumerate 1..k atoms (k at most 6, or 4 with --contact-class all)")
    arg("--contact-class", choices=["reflexive-symmetric", "all"], default="reflexive-symmetric")
    arg("--max-n", type=int, default=1, help="dimension cap per relation (default 1)")

    command("crosscheck", help="space-vs-algebra agreement properties")("space", help="space file")
    return parser, (_syntax([cap]), {name: _syntax(actions) for name, actions in commands.items()})


def _syntax(actions):
    """(the positionals in order, option string -> action, dest -> default,
    the required options)."""
    return (
        [a for a in actions if not a.option_strings],
        {s: a for a in actions for s in a.option_strings},
        {a.dest: a.default for a in actions},
        {a for a in actions if a.required and a.option_strings},
    )


def _exact_args(grammar, argv: list[str]) -> argparse.Namespace | None:
    """The Namespace that argparse returns for argv, read straight from
    the parser's actions, or None when argv is not in the one shape read.

    The shape is `[--cap-atoms N] COMMAND POSITIONAL... OPTION...`: the
    command named exactly, then the positionals, then each option at most
    once, spelled in full, with its value (if it takes one) as the next
    token. No positional or value may start with '-'. argparse then reads
    every token as this reader does: '-'-led tokens are options, an exact
    option string wins over an abbreviation, and the positionals before
    the first option match greedily by nargs (None, '?' or '+'), as here.
    The top level has one option, so no token after the command is an
    ambiguous abbreviation there, which argparse would refuse. Values go
    through each action's own type and choices, and required options must
    be present. Any other argv (help, '=', an abbreviation, '--', a
    negative number, a repeat, a positional after an option, a failed
    conversion) returns None and goes to argparse, which alone writes
    help and usage errors.
    """
    top, commands = grammar
    args = argparse.Namespace()
    values = vars(args)
    values.update(top[2])
    try:
        i = _exact_options(top, argv, 0, values)
        syntax = commands.get(argv[i]) if i < len(argv) else None
        if syntax is None:
            return None
        positionals, _, defaults, _ = syntax
        values["command"] = argv[i]
        values.update(defaults)
        i = end = i + 1
        while end < len(argv) and not argv[end].startswith("-"):
            end += 1
        for action in positionals:
            n = end - i if action.nargs == "+" else min(1, end - i)
            if n < (action.nargs != "?"):
                return None
            if n:
                got = [_exact_value(action, token) for token in argv[i:i + n]]
                values[action.dest] = got if action.nargs == "+" else got[0]
            i += n
        if _exact_options(syntax, argv, i, values) != len(argv):
            return None
    except (argparse.ArgumentTypeError, TypeError, ValueError):
        return None
    return args


def _exact_options(syntax, argv, i, values) -> int:
    """Read exact `--option VALUE` and `--flag` tokens, each at most once,
    from argv[i:] into values; return the index of the first other token.
    Every option here stores one value or its const (store and store_true
    actions). A missing value or required option raises ValueError."""
    _, options, _, required = syntax
    seen = set()
    while i < len(argv):
        action = options.get(argv[i])
        if action is None or action in seen:
            break
        seen.add(action)
        if action.nargs == 0:
            values[action.dest] = action.const
            i += 1
        elif i + 1 < len(argv) and not argv[i + 1].startswith("-"):
            values[action.dest] = _exact_value(action, argv[i + 1])
            i += 2
        else:
            raise ValueError(argv[i])
    if not required <= seen:
        raise ValueError("a required option is missing")
    return i


def _exact_value(action, token: str):
    value = action.type(token) if action.type else token
    if action.choices is not None and value not in action.choices:
        raise ValueError(token)
    return value


_HANDLERS = {
    "check": _cmd_check,
    "dim": _cmd_dim,
    "weight": _cmd_weight,
    "piweight": _cmd_piweight,
    "product": _cmd_product,
    "relative": _cmd_relative,
    "space": _cmd_space,
    "search": _cmd_search,
    "crosscheck": _cmd_crosscheck,
}


_PARSER = None  # build_parser(), made on the first call of main


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    parser, grammar = _PARSER
    argv = sys.argv[1:] if argv is None else argv
    args = _exact_args(grammar, argv)
    if args is None:
        args = parser.parse_args(argv)
    report = Report([])
    try:
        _HANDLERS[args.command](args, report)
    except CliInputError as e:
        where = f"line {e.line}: " if e.line else ""
        print(f"error: {where}{e}", file=sys.stderr)
        return 2
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except InternalInconsistencyError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 3
    for line in report.lines:
        print(line)
    return 1 if report.failed else 0


if __name__ == "__main__":
    sys.exit(main())
