"""Checks on the package source itself."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "cidcurve"


def test_no_assert_statements():
    # `python -O` strips asserts, so none may carry a runtime contract
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in src: {found}"


def _referenced_names(node):
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
    return names


def test_no_orphaned_private_functions():
    # every module-level private function or class is used somewhere in
    # the package other than inside its own definition
    defined = []
    used = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            used[path.name, node.lineno] = _referenced_names(node)
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_")
                    and not node.name.startswith("__")):
                defined.append((path.name, node.lineno, node.name))
    orphans = [
        f"{module}:{line} {name}" for module, line, name in defined
        if not any(name in names for key, names in used.items()
                   if key != (module, line))
    ]
    assert not orphans, f"private names nothing else uses: {orphans}"


def test_random_coefficients_are_drawn_as_nonzero_vectors():
    # a draw from 1..1000 vanishes in F_p when p divides it, so every
    # random form or combination is drawn through SplitMix64.vector,
    # which draws again while all its entries vanish
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "rng.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and node.attr == "unit_coefficient"]
    assert not found, f"unit_coefficient outside rng.py: {found}"


def test_minor_kernel_stays_in_discrepancy():
    # every Jacobian minor is drawn through `discrepancy`'s streams, so
    # no other module reaches for the kernel itself
    found = [path.name for path in sorted(SRC.glob("*.py"))
             if path.name != "discrepancy.py"
             and "_minors" in _referenced_names(
                 ast.parse(path.read_text(), filename=str(path)))]
    assert not found, f"_minors referenced outside discrepancy: {found}"


def test_echelon_rows_are_made_in_groebner():
    # every echelon row is made by `groebner._normalize`, through the
    # reducer or the one echelon step `_echelon_insert`, so no other
    # module normalizes a row itself
    found = [path.name for path in sorted(SRC.glob("*.py"))
             if path.name != "groebner.py"
             and "_normalize" in _referenced_names(
                 ast.parse(path.read_text(), filename=str(path)))]
    assert not found, f"_normalize referenced outside groebner: {found}"


def test_dimension_bounds_ask_the_kernel():
    # "dim <= bound" has one answer, `ideals.dimension_at_most`, which
    # alone decides whether to screen mod p; elsewhere a Krull dimension
    # is read only as a value, never compared
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "ideals.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Compare)
                  for operand in (node.left, *node.comparators)
                  if isinstance(operand, ast.Call)
                  and "krull_dimension" in _referenced_names(operand.func)]
    assert not found, f"krull_dimension compared outside ideals: {found}"


def test_cached_ideal_data_stays_in_the_ideal_layer():
    # what an `Ideal` keeps, its bases and its image mod p, is the
    # business of `ideals` alone; Hilbert data lives on the basis
    found = [f"{path.name} {name}" for path in sorted(SRC.glob("*.py"))
             if path.name != "ideals.py"
             for name in ("_gb_cache", "_mod_p_image")
             if name in path.read_text()]
    assert not found, f"ideal caches mentioned outside ideals: {found}"


def test_packed_monomials_unpack_only_in_orders():
    # `orders.Packing` is the one map between exponent tuples and ints, so
    # a right shift, the unpacking of a packed monomial, appears only
    # there and in `rng`'s bit mixing
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name in ("orders.py", "rng.py"):
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.BinOp)
                  and isinstance(node.op, ast.RShift)]
    assert not found, f"right shifts outside orders.py and rng.py: {found}"


def _ideals_function(name):
    tree = ast.parse((SRC / "ideals.py").read_text())
    return next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == name)


def test_one_kernel_per_ideal_operation():
    # a principal saturation is Rabinowitsch's elimination and a
    # principal colon a Bayer basis, whatever the input; neither keeps
    # the other kernel as a second path
    saturation = _referenced_names(_ideals_function("_saturate_principal"))
    colon = _referenced_names(_ideals_function("colon_principal"))
    assert not saturation & {"WeightedGrevLex", "_bayer_basis"}
    assert not colon & {"intersect", "divide_exact"}


def _public(name):
    return not name.startswith("_") or name.startswith("__")


def test_no_public_hilbert_target():
    # a Hilbert target changes only the work, and one above the true
    # series gives a wrong basis, so it enters a run only through the
    # private `ideals._cached_basis`: no public function, and no public
    # method of a public class, takes a parameter named `target`
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        functions = [node for node in tree.body
                     if isinstance(node, ast.FunctionDef)]
        functions += [method for node in tree.body
                      if isinstance(node, ast.ClassDef)
                      and _public(node.name)
                      for method in node.body
                      if isinstance(method, ast.FunctionDef)]
        found += [f"{path.name}:{node.lineno} {node.name}"
                  for node in functions if _public(node.name)
                  and "target" in {arg.arg for arg in (
                      *node.args.posonlyargs, *node.args.args,
                      *node.args.kwonlyargs)}]
    assert not found, f"public parameters named target: {found}"
