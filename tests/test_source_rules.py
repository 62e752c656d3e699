"""Rules about the package source itself."""

import ast
import sys
from pathlib import Path

import schmidtq
from schmidtq.identities import IDENTITY_TABLE, SERIES_IDENTITIES, SeriesIdentity

from mutants import MUTANTS, ROOT

SOURCE = Path(schmidtq.__file__).parent


def test_no_module_rests_on_assert():
    # python -O strips assert statements, so a runtime invariant must raise.
    modules = sorted(SOURCE.glob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def imported_names(module):
    """``module.py:line name`` for every name the module imports."""
    tree = ast.parse((SOURCE / module).read_text())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            prefix = f"{node.module}." if node.module else ""
            names = [prefix + alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        found += [(f"{module}:{node.lineno} {name}", set(name.split("."))) for name in names]
    return found


def test_src_imports_only_the_standard_library():
    # schmidtq has no runtime dependencies: every absolute import names a
    # standard-library module.  Relative imports stay inside the package.
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names
            ]
    assert found == []


def test_partitions_reads_no_other_side():
    # The Schmidt-side tables stay independent of the product and colored
    # sides: partitions.py imports nothing from those modules.
    found = [
        where
        for where, parts in imported_names("partitions.py")
        if {"series", "colored", "identities"} & parts
    ]
    assert found == []


def test_colored_reads_no_series_or_identities():
    # The colored tables count objects from their own definition, never
    # from a product formula or a verifier: colored.py imports nothing
    # from the series or identities modules.
    found = [
        where for where, parts in imported_names("colored.py") if {"series", "identities"} & parts
    ]
    assert found == []


def test_colored_decodes_no_key_of_the_schmidt_side():
    # From partitions.py the colored side takes the residue check and the
    # partition walk only, never the Schmidt side's bucket decoder.
    found = [
        where
        for where, parts in imported_names("colored.py")
        if "partitions" in parts and not parts & {"normalize_residue_set", "partition_groups"}
    ]
    assert found == []


def test_colored_counts_read_one_coin_table():
    # Every colored count is read off _coin_table, which folds in the one
    # loop that adds a part type, so no count keeps a table loop of its own.
    tree = ast.parse((SOURCE / "colored.py").read_text())
    defs = dict(defined_names(tree))
    assert "_add_part" not in defs
    found = [
        name
        for name in ("colored_bucket_counts", "colored_partition_total", "_overpartition_table")
        if not any(getattr(node, "id", None) == "_coin_table" for node in ast.walk(defs[name]))
    ]
    assert found == []


def test_cli_spells_no_series_identity():
    # The CLI reads each series identity's ring, parameters and sides from
    # the identity table, so cli.py names no series id.
    tree = ast.parse((SOURCE / "cli.py").read_text())
    found = [
        f"cli.py:{node.lineno} {node.value!r}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value in SERIES_IDENTITIES
    ]
    assert found == []


def test_one_rule_decides_a_rows_modulus_and_residues():
    # A row's Family alone says what (m, S) it takes; one function checks a
    # fixed row's given (m, S) and raises the one refusal that names it, and
    # the CLI reaches every side through identities' lookup by label.
    assert SeriesIdentity._fields == ("ring", "sides", "family")
    cli_names = {name for _, name in named("cli.py")}
    assert cli_names & {"sum_side", "product_side", "enum_side"} == set()
    text = "".join(path.read_text() for path in SOURCE.glob("*.py"))
    assert text.count("is specific to modulus") == 1
    assert "residues {1}" not in text


def test_identities_names_s_graded_ids_only_in_the_table():
    # product_side, enum_side and witnesses build the s-graded rows from
    # each row's family, so no id of those rows is spelled outside the
    # IDENTITY_TABLE assignment.
    tree = ast.parse((SOURCE / "identities.py").read_text())
    (table,) = [
        node
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["IDENTITY_TABLE"]
    ]
    inside = {id(node) for node in ast.walk(table)}
    ids = {ident for ident in SERIES_IDENTITIES if IDENTITY_TABLE[ident].ring == ("q", "s")}
    assert ids == {"mork_odd", "mork_even", "psi_all", "psi_dm"}
    found = [
        f"identities.py:{node.lineno} {node.value!r}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value in ids and id(node) not in inside
    ]
    assert found == []


def named(module):
    """``(line, name)`` for every name the module imports, reads or writes."""
    for node in ast.walk(ast.parse((SOURCE / module).read_text())):
        for name in (getattr(node, "id", None), getattr(node, "attr", None)):
            if name:
                yield node.lineno, name
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from ((node.lineno, alias.name) for alias in node.names)


def test_only_partitions_names_the_part_size_pass():
    # The part-size pass, the table builder _table, and its packed states
    # live in partitions.py alone, so no other module shares its counting
    # loop, and no count a check compares is made in identities.py: it
    # names neither the pass nor the partition walk.
    banned = {path.name: {"_table"} for path in SOURCE.glob("*.py")}
    del banned["partitions.py"]
    banned["identities.py"].add("partition_groups")
    found = [
        f"{module}:{line} {name}"
        for module, names in sorted(banned.items())
        for line, name in named(module)
        if name in names
    ]
    assert found == []


def test_the_part_size_pass_has_one_read_loop():
    # Every class reads its cells through one loop body: class P and the
    # bounded classes differ only in read order and run list, so _table
    # walks a cell's states in exactly one for loop.
    tree = ast.parse((SOURCE / "partitions.py").read_text())
    (func,) = [
        node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_table"
    ]
    loops = [
        node
        for node in ast.walk(func)
        if isinstance(node, ast.For)
        and isinstance(node.iter, ast.Call)
        and isinstance(node.iter.func, ast.Attribute)
        and node.iter.func.attr == "items"
        and getattr(node.iter.func.value, "id", None) == "src"
    ]
    assert len(loops) == 1


def test_identities_hands_the_ring_only_packed_dicts():
    # Every side and check in identities.py counts in one dict of packed
    # keys, and the dict enters a series through Series._raw or the checked
    # Series._from_packed.  No function builds a series by Series(...), the
    # one-term builders of SeriesContext, q_binomial or the step methods,
    # each of which makes a new object per term, sum or step.
    tree = ast.parse((SOURCE / "identities.py").read_text())
    entries = {
        id(node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in {"_raw", "_from_packed"}
    }
    banned = {"term", "one", "constant", "zero", "q_binomial", "q_multinomial"}
    banned |= {"div_one_minus", "mul_one_minus"}
    found = [
        f"identities.py:{node.lineno} Series"
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id == "Series" and id(node) not in entries
    ]
    found += [f"identities.py:{line} {name}" for line, name in named("identities.py") if name in banned]
    assert found == []


def test_witnesses_build_only_the_objects_they_keep():
    # witnesses walks only the objects on its monomial, so it neither
    # streams every object of a size nor filters by a statistic or a class.
    tree = ast.parse((SOURCE / "identities.py").read_text())
    (func,) = [
        node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "witnesses"
    ]
    banned = {"colored_partitions", "overpartitions", "color_counts", "over_stats", "in_class"}
    found = [
        f"identities.py:{node.lineno} {name}"
        for node in ast.walk(func)
        for name in (getattr(node, "id", None), getattr(node, "attr", None))
        if name in banned
    ]
    assert found == []


# Defined in src/ but used only from outside it, each for a reason.
UNUSED_IN_SOURCE = {
    "geometric_inverse": "a target of perfbench/tracer.py",
    "poch_infinite": "a target of perfbench/tracer.py",
    "poch_infinite_inverse": "a target of perfbench/tracer.py",
    "q_binomial": "a target of perfbench/tracer.py",
    "q_multinomial": "a target of perfbench/tracer.py",
    "admissible_colors": "a target of perfbench/tracer.py",
    "cs_validate": "a target of perfbench/tracer.py",
    "color_counts": "a target of perfbench/tracer.py",
    "schmidt_weight": "a target of perfbench/tracer.py",
    "over_stats": "a target of perfbench/tracer.py",
    "colored_partitions": "a target of perfbench/tracer.py",
    "Series.coefficient_at": "read by perfbench's runner and demos/coefficient_hunt.py",
    "ln_series": "a series_sides benchmark op",
    "Series.mul_one_minus": "the multiply step the README documents",
    "Series.div_one_minus": "the division step the README documents",
    "SeriesContext.zero": "a series builder the README documents; perfbench/make_digests.py sums from it",
    "SeriesContext.term": "the one-term series builder the README documents",
    "Partition.multiplicity": "read by the bijection and partition tests",
    "Partition.conjugate": "public method the README documents; the maps walk their lists inline",
    "residue_column_table": "public tuple-keyed table; enum_side counts it in the ring's keys",
    "schmidt_weight_table": "public tuple-keyed table; enum_side counts it in the ring's keys",
}


def defined_names(node, prefix=""):
    """``(module-level qualified name, node)`` for every def and class under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = prefix + child.name
            yield name, child
            yield from defined_names(child, name + ".")
        else:
            yield from defined_names(child, prefix)


def test_every_definition_has_a_use():
    # A def or class nothing in src/ refers to is dead code unless it is on
    # the list above.  Imports and __all__ strings are not uses.  A
    # module-level def is used only by its name, as src/ imports names
    # instead of reading them off a module; a class member is also used
    # through an attribute of that name.
    names, attrs, defined = set(), set(), []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
        defined += [(path.name, name, node) for name, node in defined_names(tree)]
    unused = {
        name: f"{module}:{node.lineno}"
        for module, name, node in defined
        if not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in (names if "." not in name else names | attrs)
    }
    assert sorted(unused) == sorted(UNUSED_IN_SOURCE), unused


def scoped_names(node, scope="<module>"):
    """``(innermost def or class, name)`` for every name read, written or imported under node."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = child.name if scope == "<module>" else f"{scope}.{child.name}"
        for name in (getattr(child, "id", None), getattr(child, "attr", None)):
            if name:
                yield inner, name
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield from ((inner, alias.name) for alias in child.names)
        yield from scoped_names(child, inner)


def test_only_enum_side_hands_packed_keys_to_the_ring():
    # The enum tables count in the ring's packed keys, and their dicts enter
    # a series only through the one checked packed-key constructor, which
    # enum_side alone calls; no other path takes keys without a check.
    found = sorted(
        {
            f"{path.name} {scope}"
            for path in SOURCE.glob("*.py")
            for scope, name in scoped_names(ast.parse(path.read_text()))
            if name == "_from_packed" or scope == "enum_side" and name == "_raw"
        }
    )
    assert found == ["identities.py enum_side"]


def test_every_mutant_record_still_applies():
    # tests/mutants.py runs each record against its tests; here each must
    # name code that occurs once, change it, and name tests that exist.
    assert len({mutant.name for mutant in MUTANTS}) == len(MUTANTS)
    for mutant in MUTANTS:
        assert mutant.path.startswith("src/"), mutant.name
        assert (ROOT / mutant.path).read_text().count(mutant.snippet) == 1, mutant.name
        assert mutant.replacement != mutant.snippet, mutant.name
        assert mutant.tests, mutant.name
        for node in mutant.tests:
            path, _, name = node.partition("::")
            assert f"\ndef {name.partition('[')[0]}(" in (ROOT / path).read_text(), node
