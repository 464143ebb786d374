"""Checks on the source of src/homsol itself."""

import ast
from collections import Counter
from pathlib import Path

import homsol

SRC = Path(__file__).resolve().parents[1] / "src" / "homsol"

# class members that stay although src/homsol does not read them: each has a reader outside it
OUTSIDE_READERS = {
    "MetricDecomposition.mm_from_blocks": "tests/test_acceptance.py compares it with moment()",
    "EquivalenceReport.all_agree": "tests/test_acceptance.py",
    "PairingReport.summands_nonnegative": "tests/test_acceptance.py",
    "PairingReport.split_defect": "tests/test_acceptance.py",
    "CheckedReport.condition": "tests/test_acceptance.py reads battery conditions by name",
    "MinNormResult.iterations": "bench/tracer.py records it for each min_norm_point call",
    "MinNormResult.coefficients": "tests/test_strata.py checks the convex weights, which "
    "ROADMAP item 5 (the pre-Einstein derivation) needs",
    "SolitonCertificate.derivation_defect": "tests/test_acceptance.py sets it by keyword",
    "SolitonCertificate.sym_derivation_defect": "tests/test_acceptance.py sets it by keyword",
    "AlgebraTensor.scale": "tests/conftest.py rescales brackets with it, which "
    "tests/test_acceptance.py reaches",
}

# the helpers that read the input formats, which only homsol.io may name
READER_HELPERS = {"_require_keys", "_dimension", "_finite_number", "_numeric_array", "_bracket"}


def _names(node):
    """Every identifier a node and its children refer to: names, attributes, imports, keywords."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name
        elif isinstance(sub, ast.keyword) and sub.arg:
            yield sub.arg


def _attribute_reads(node):
    """Every attribute a node and its children read: ``x.name`` in load context."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            yield sub.attr


def _reads(node):
    """Every name a node and its children read: ``name`` and ``x.name`` in load context."""
    yield from _attribute_reads(node)
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id


def _trees():
    return {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _class_members(tree):
    """(Class.member, node) for each method, property and annotated field of each class."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, ast.FunctionDef):
                yield f"{cls.name}.{node.name}", node
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                yield f"{cls.name}.{node.target.id}", node


def test_every_private_module_level_definition_has_a_caller():
    # a module-level _function or _Class that nothing else in the package
    # names is dead code; references inside its own body do not count
    trees = _trees()
    used = Counter(name for tree in trees.values() for name in _names(tree))
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_") or node.name.startswith("__"):
                continue
            if used[node.name] - Counter(_names(node))[node.name] == 0:
                unused.append(f"{module}:{node.name}")
    assert not unused, unused


def test_every_public_module_level_definition_is_exported_or_read():
    # a module-level public function or class that is neither in homsol.__all__
    # nor read anywhere in the package outside its own body is dead code
    trees = _trees()
    used = Counter(name for tree in trees.values() for name in _reads(tree))
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_") or node.name in homsol.__all__:
                continue
            if used[node.name] - Counter(_reads(node))[node.name] == 0:
                unused.append(f"{module}:{node.name}")
    assert not unused, unused


def test_every_class_member_is_read_outside_its_own_body():
    # a method, property or dataclass field that nothing else in the package
    # reads as an attribute (x.name) is dead code, even when a keyword argument
    # sets it, unless a reader outside the package is listed for it
    trees = _trees()
    used = Counter(name for tree in trees.values() for name in _attribute_reads(tree))
    unread = set()
    for tree in trees.values():
        for qualname, node in _class_members(tree):
            name = qualname.split(".")[1]
            if name.startswith("__"):
                continue
            if used[name] - Counter(_attribute_reads(node))[name] == 0:
                unread.add(qualname)
    assert not unread - set(OUTSIDE_READERS), sorted(unread - set(OUTSIDE_READERS))
    # every listed exception is needed: it exists, and the package does not read it itself
    assert not set(OUTSIDE_READERS) - unread, sorted(set(OUTSIDE_READERS) - unread)


def _is_a_decomposition(arg: ast.arg) -> bool:
    """Whether a parameter is named ``dec`` or annotated ``MetricDecomposition``."""
    annotation = ast.unparse(arg.annotation).strip("\"'") if arg.annotation else ""
    return arg.arg == "dec" or annotation == "MetricDecomposition"


def test_no_function_of_a_decomposition_takes_a_tol():
    # a validated decomposition carries its tolerance (dec.tol); a function that
    # receives one and a tol of its own could hold one verdict to two tolerances.
    # Checked for every parameter, not only the first, so that the command bodies
    # run_*(report, dec, ...) are covered too
    offenders = []
    for module, tree in _trees().items():
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            params = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
            if any(map(_is_a_decomposition, params)) and any(a.arg == "tol" for a in params):
                offenders.append(f"{module}:{fn.name}")
    assert not offenders, offenders


def _constructions(node):
    """Every ``MetricDecomposition(...)`` call inside node."""
    calls = [call for call in ast.walk(node) if isinstance(call, ast.Call)]
    return [call for call in calls if ast.unparse(call.func).split(".")[-1] == "MetricDecomposition"]


def test_decompositions_are_constructed_only_through_the_memo():
    # decompose is the one constructor of validated decompositions: a direct
    # MetricDecomposition(...) anywhere but inside its memo, _validated, would
    # build an algebra the memo already holds again, with its Der(n), label and
    # certificate
    trees = _trees()
    (memo,) = [
        node
        for node in trees["decomposition.py"].body
        if isinstance(node, ast.FunctionDef) and node.name == "_validated"
    ]
    allowed = set(map(id, _constructions(memo)))
    assert len(allowed) == 1
    offenders = [
        f"{module}:{call.lineno}"
        for module, tree in trees.items()
        for call in _constructions(tree)
        if id(call) not in allowed
    ]
    assert not offenders, offenders


def test_only_io_names_the_reader_helpers():
    # homsol.io reads both input formats, algebra and construction documents;
    # a reader helper named elsewhere would be a second reader of one format
    trees = _trees()
    offenders = sorted(
        f"{module}:{name}"
        for module, tree in trees.items()
        if module != "io.py"
        for name in set(_names(tree)) & READER_HELPERS
    )
    assert not offenders, offenders
    io_names = set(_names(trees["io.py"]))
    assert READER_HELPERS <= io_names, sorted(READER_HELPERS - io_names)


def test_no_indented_json_dumps_in_the_package():
    # io._json_text owns the layout of every indented JSON text the package
    # writes: reports, documents and extend --out files
    offenders = [
        f"{module}:{call.lineno}"
        for module, tree in _trees().items()
        for call in ast.walk(tree)
        if isinstance(call, ast.Call)
        and ast.unparse(call.func) in ("json.dumps", "json.dump", "dumps", "dump")
        and any(k.arg == "indent" for k in call.keywords)
    ]
    assert not offenders, offenders


def test_nice_position_is_only_reported():
    # every label check runs in every order of the n basis, so no check may branch on
    # the nice-position flag: its one read is cli._stratify writing it into results
    trees = _trees()
    reads = [
        f"{module}:{node.lineno}"
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "nice_position" and isinstance(node.ctx, ast.Load)
    ]
    (stratify,) = [
        node for node in trees["cli.py"].body if isinstance(node, ast.FunctionDef) and node.name == "_stratify"
    ]
    written = [
        f"cli.py:{value.lineno}"
        for results in ast.walk(stratify)
        if isinstance(results, ast.Dict)
        for key, value in zip(results.keys, results.values)
        if isinstance(key, ast.Constant) and key.value == "nice_position"
    ]
    assert len(written) == 1
    assert reads == written, reads


def test_document_files_are_read_only_through_the_memo():
    # io._document, memoized on a file's text, is the one reader of document_from_dict:
    # every file a document command loads is parsed, read and hashed once per text
    trees = _trees()
    (memo,) = [
        node
        for node in trees["io.py"].body
        if isinstance(node, ast.FunctionDef) and node.name == "_document"
    ]
    assert [ast.unparse(d) for d in memo.decorator_list] == ["functools.lru_cache(maxsize=MEMO_SIZE)"]
    inside = set(map(id, ast.walk(memo)))
    reads = [
        (module, node)
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
        and isinstance(node.ctx, ast.Load)
        and (node.id if isinstance(node, ast.Name) else node.attr) == "document_from_dict"
    ]
    offenders = [f"{module}:{node.lineno}" for module, node in reads if id(node) not in inside]
    assert not offenders, offenders
    assert len(reads) == 1


def test_the_inner_product_is_checked_and_factorized_in_one_place():
    # metric_faults is the one inner-product rule, of documents and constructions alike, and
    # orthonormal_frame the one factorization; no metric rule reads the residual tol, so an
    # inner product is refused or accepted whatever --tol
    trees = _trees()
    functions = {
        node.name: node
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
    }
    factorizations = [
        node
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "cholesky"
    ]
    assert len(factorizations) == 1
    assert id(factorizations[0]) in set(map(id, ast.walk(functions["orthonormal_frame"])))
    for name in ("metric_faults", "_metric_violations"):
        assert "tol" not in set(_names(functions[name])), name


def test_a_bracket_is_written_in_its_orthonormal_frame_in_one_place():
    # decompose alone maps a bracket into the frame of its inner product, so a decomposition
    # holds one basis; the builder moves only D1 into that frame, and ricci maps its operator
    # back into the basis a document lists
    callers = sorted(
        f"{module}:{fn.name}"
        for module, tree in _trees().items()
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        and fn.name != "orthonormal_frame"
        and "orthonormal_frame" in set(_names(fn))
    )
    assert callers == ["cli.py:run_ricci", "constructions.py:d1_on", "decomposition.py:decompose"]
