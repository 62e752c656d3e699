"""Command-line front end.

Five subcommands: ``verify`` runs an identity or counting check and
exits 0/1, ``coeff`` prints one exact coefficient, ``witness`` lists the
enumerated objects behind a coefficient, ``map`` applies a bijection,
and ``enumerate`` streams serialized objects.  Usage problems exit 2.
All output is deterministic; ``--json`` emits the verification report
with every number as a decimal string.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .bijections import (
    color_conjugate,
    color_conjugate_inverse,
    decompose_multiplicity,
    glaisher_expand,
    glaisher_reduce,
    merge_partitions,
    mork_forward,
    mork_inverse,
)
from .colored import ColoredPartition, _colored_partition_texts, overpartitions
from .identities import (
    COUNTING_TABLE,
    IDENTITY_TABLE,
    RING_CAPS,
    RING_VARIABLES,
    SERIES_IDENTITIES,
    _check_fixed,
    _side_builder,
    cauchy_check,
    check_exponents,
    t1_slice_check,
    verify_counting,
    verify_identity,
    witnesses,
)
from .partitions import Partition, partitions_of, partitions_with_schmidt_weight

_CAP_FLAGS = {"qcap": "--q-cap", "scap": "--s-cap"}
_VERIFY_IDS = SERIES_IDENTITIES + tuple(COUNTING_TABLE) + ("cauchy", "t1_slice")
# The flags each bijection of `map` reads, besides --partition and --inverse.
_MAP_READS = {"psi": ("--m", "--s"), "mork": (), "glaisher": ("--m",), "decompose": ("--m",)}
# --side takes the report label of any compared side.
_SIDES = tuple(dict.fromkeys(side[0] for entry in IDENTITY_TABLE.values() for side in entry.sides))


# The type= parsers raise ArgumentTypeError, as argparse prints only that
# exception's message; both it and run exit 2 on a usage error.


def _parse_residues(text):
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"residue list must be comma-separated integers, got {text!r}"
        )


def _parse_monomial(text):
    exps = {}
    if text.strip() == "":
        return exps
    for piece in text.split(","):
        name, sep, value = piece.partition("=")
        name = name.strip()
        if not sep or name not in RING_VARIABLES:
            raise argparse.ArgumentTypeError(f"bad monomial component {piece!r}; use q=6,t1=1,t2=2")
        try:
            e = int(value)
        except ValueError:
            raise argparse.ArgumentTypeError(f"exponent in {piece!r} is not an integer")
        if e < 0 or name in exps:
            raise argparse.ArgumentTypeError(f"bad monomial component {piece!r}")
        exps[name] = e
    return exps


def _contiguous_block(residues):
    # The psi_* rows take the residue set 1..i as i, however it is spelled.
    block = sorted(set(residues))
    if block != list(range(1, len(block) + 1)):
        raise ValueError(f"residues must be 1..i for this identity, got {residues}")
    return len(block)


def _given(args, flag):
    return getattr(args, flag.lstrip("-").replace("-", "_"), None)


def _need(args, flag):
    value = _given(args, flag)
    if value is None:
        raise ValueError(f"{flag} is required here")
    return value


def _refuse_unread(args, target, *reads):
    for flag in ("--n", "--q-cap", "--s-cap", "--m", "--s", "--top"):
        if flag not in reads and _given(args, flag) is not None:
            raise ValueError(f"{flag} does not apply to {target}")


def _params(args, entry):
    # m and i from --m and --s, required by a row whose family fixes nothing.  A
    # fixed row checks its own (m, S) here; a row with no family refuses any given.
    family = entry.family
    if family is None:
        return {"m": args.m, "i": args.s}
    if family.fixed:
        _check_fixed(family, args.m, args.s, "identity")
        return {}
    return {"m": _need(args, "--m"), "i": _contiguous_block(_need(args, "--s"))}


@functools.cache
def _build_parser():
    # Built once per process: a parse leaves the parser as it was, and
    # building it costs more than most commands.
    parser = argparse.ArgumentParser(
        prog="schmidtq",
        description="Exact checks and maps for Schmidt-type partition statistics.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="check one identity or counting theorem")
    p_verify.add_argument("id", choices=_VERIFY_IDS)
    p_verify.add_argument("--m", type=int)
    p_verify.add_argument("--s", type=_parse_residues, metavar="R1,R2,...")
    p_verify.add_argument("--n", type=int)
    p_verify.add_argument("--q-cap", type=int, dest="q_cap")
    p_verify.add_argument("--s-cap", type=int, dest="s_cap")
    p_verify.add_argument("--json", action="store_true")

    p_coeff = sub.add_parser("coeff", help="print one exact coefficient of one side")
    p_coeff.add_argument("--identity", required=True, choices=SERIES_IDENTITIES)
    p_coeff.add_argument("--side", required=True, choices=_SIDES)
    p_coeff.add_argument("--mono", required=True, type=_parse_monomial, metavar="q=6,t1=1,t2=2")
    p_coeff.add_argument("--m", type=int)
    p_coeff.add_argument("--s", type=_parse_residues, metavar="R1,R2,...")
    p_coeff.add_argument("--q-cap", type=int, dest="q_cap")
    p_coeff.add_argument("--s-cap", type=int, dest="s_cap")

    p_witness = sub.add_parser("witness", help="list objects hitting one monomial")
    p_witness.add_argument("--identity", required=True, choices=SERIES_IDENTITIES)
    p_witness.add_argument("--mono", required=True, type=_parse_monomial, metavar="q=6,t1=1,t2=2")
    p_witness.add_argument("--m", type=int)
    p_witness.add_argument("--s", type=_parse_residues, metavar="R1,R2,...")

    p_map = sub.add_parser("map", help="apply a bijection to one partition")
    p_map.add_argument("--bijection", required=True, choices=tuple(_MAP_READS))
    p_map.add_argument("--m", type=int)
    p_map.add_argument("--s", type=_parse_residues, metavar="R1,R2,...")
    p_map.add_argument("--partition", required=True)
    p_map.add_argument("--inverse", action="store_true")

    p_enum = sub.add_parser("enumerate", help="stream serialized objects")
    p_enum.add_argument("--class", required=True, dest="cls",
                        choices=("P", "D", "F", "R", "cs", "over"))
    p_enum.add_argument("--n", type=int)
    p_enum.add_argument("--m", type=int)
    p_enum.add_argument("--s", type=_parse_residues, metavar="R1,R2,...")
    p_enum.add_argument("--top", type=int)
    p_enum.add_argument("--schmidt-weight", type=int, dest="schmidt_weight")

    return parser


def _cmd_verify(args, out):
    ident = args.id
    if ident in IDENTITY_TABLE:
        entry = IDENTITY_TABLE[ident]
        cap = RING_CAPS[entry.ring]
        _refuse_unread(args, ident, _CAP_FLAGS[cap], "--m", "--s")
        caps = {cap: _need(args, _CAP_FLAGS[cap])}
        report = verify_identity(ident, **caps, **_params(args, entry))
    elif ident in COUNTING_TABLE:
        _refuse_unread(args, ident, "--n", "--m", "--s")
        n = _need(args, "--n")
        fixed = COUNTING_TABLE[ident].fixed
        m, s = (args.m, args.s) if fixed else (_need(args, "--m"), _need(args, "--s"))
        report = verify_counting(ident, n=n, m=m, s=s)
    elif ident == "cauchy":
        _refuse_unread(args, ident, "--n", "--q-cap")
        report = cauchy_check(_need(args, "--n"), args.q_cap)
    else:
        _refuse_unread(args, ident, "--n", "--q-cap")
        report = t1_slice_check(_need(args, "--n"), _need(args, "--q-cap"))

    if args.json:
        print(report.to_json_text(), file=out)
    else:
        print(f"{report.theorem}: {report.status}", file=out)
        if not report.passed:
            print(f"  {report.evidence_text()}", file=out)
    return 0 if report.passed else 1


def _side_series(ident, side, exps, args):
    entry = IDENTITY_TABLE[ident]
    check_exponents(ident, exps)
    cap = RING_CAPS[entry.ring]
    flag = _CAP_FLAGS[cap]
    _refuse_unread(args, ident, flag, "--m", "--s")
    needed = max(exps.get(v, 0) for v in entry.ring)
    value = _given(args, flag)
    value = needed if value is None else value
    if value < needed:
        raise ValueError(f"{flag} {value} is below the requested exponents")
    return _side_builder(ident, side)(**{cap: value}, **_params(args, entry))


def _cmd_coeff(args, out):
    series = _side_series(args.identity, args.side, args.mono, args)
    ctx = series.context
    mono = ctx.monomial(**{v: e for v, e in args.mono.items() if v in ctx.variables})
    print(series.coefficient(mono), file=out)
    return 0


def _cmd_witness(args, out):
    kwargs = _params(args, IDENTITY_TABLE[args.identity])
    write = out.write
    for line in witnesses(args.identity, args.mono, **kwargs):
        write(line + "\n")
    return 0


def _split_pair(text):
    if text.count(";") != 1:
        raise ValueError(f"expected two ;-separated partitions, got {text!r}")
    a, b = text.split(";")
    return Partition.from_text(a), Partition.from_text(b)


def _cmd_map(args, out):
    name = args.bijection
    _refuse_unread(args, name, *_MAP_READS[name])
    if name == "psi":
        m = _need(args, "--m")
        s = _need(args, "--s")
        if args.inverse:
            result = color_conjugate_inverse(ColoredPartition.from_text(args.partition), m, s)
        else:
            result = color_conjugate(Partition.from_text(args.partition), m, s)
    elif name == "mork":
        lam = Partition.from_text(args.partition)
        result = mork_inverse(lam) if args.inverse else mork_forward(lam)
    elif name == "glaisher":
        m = _need(args, "--m")
        if args.inverse:
            kept, banked = _split_pair(args.partition)
            result = glaisher_expand(kept, banked, m)
        else:
            kept, banked = glaisher_reduce(Partition.from_text(args.partition), m)
            print(f"{kept.to_text()};{banked.to_text()}", file=out)
            return 0
    else:
        m = _need(args, "--m")
        if args.inverse:
            low, bulk = _split_pair(args.partition)
            result = merge_partitions(low, bulk)
            # Only an image, low below m copies and bulk in m-fold runs, splits back.
            if decompose_multiplicity(result, m) != (low, bulk):
                raise ValueError(f"{args.partition!r} is not a decomposition at m = {m}")
        else:
            low, bulk = decompose_multiplicity(Partition.from_text(args.partition), m)
            print(f"{low.to_text()};{bulk.to_text()}", file=out)
            return 0
    print(result.to_text(), file=out)
    return 0


def _cmd_enumerate(args, out):
    cls = args.cls
    if args.schmidt_weight is not None:
        if cls not in ("P", "D"):
            raise ValueError("--schmidt-weight applies to classes P and D only")
        if args.n is not None:
            raise ValueError("give either --n or --schmidt-weight, not both")
        _refuse_unread(args, "--schmidt-weight", "--m", "--s")
        m = args.m if args.m is not None else 2
        s = args.s if args.s is not None else (1,)
        stream = partitions_with_schmidt_weight(args.schmidt_weight, m, s, cls)
    elif cls == "P":
        _refuse_unread(args, "class P", "--n")
        stream = partitions_of(_need(args, "--n"))
    elif cls in ("D", "F", "R"):
        _refuse_unread(args, f"class {cls}", "--n", "--m")
        stream = partitions_of(_need(args, "--n"), cls, _need(args, "--m"))
    elif cls == "cs":
        _refuse_unread(args, "class cs", "--n", "--m", "--s", "--top")
        m = _need(args, "--m")
        top = args.top if args.top is not None else m + 1
        stream = _colored_partition_texts(_need(args, "--n"), m, _need(args, "--s"), top)
    else:
        _refuse_unread(args, "class over", "--n")
        stream = overpartitions(_need(args, "--n"))
    # One write per object, as the stream makes it: nothing holds every line.
    write = out.write
    if cls == "cs":
        # Texts, not objects: each group's runs are formatted once per partition.
        for line in stream:
            write(line + "\n")
        return 0
    for obj in stream:
        write(obj.to_text() + "\n")
    return 0


_HANDLERS = {
    "verify": _cmd_verify,
    "coeff": _cmd_coeff,
    "witness": _cmd_witness,
    "map": _cmd_map,
    "enumerate": _cmd_enumerate,
}


def run(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; pass both through
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args, sys.stdout)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early, as `schmidtq enumerate ... | head`
        # does.  Point fd 1 at the null device so the interpreter's final
        # flush cannot fail again, and exit quietly.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
