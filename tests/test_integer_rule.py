"""`rules` is the one home of the input rules: `rules.integer` is the one
rule of what an integer is, a second copy of it elsewhere in the package
must fail here, and no module re-labels a rule's error but the spec
reader, which maps it to a document path."""

import re

from conftest import REPO_ROOT

PACKAGE = REPO_ROOT / "src" / "marketclear"

# the forms an inline integer test takes
INLINE = re.compile(r"operator\.index|numbers\.Integral|isinstance\(.*\bbool")


def _lines(exempt):
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != exempt:
            for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
                yield f"{path.name}:{number}: {line.strip()}", line


def test_integer_rule_lives_in_rules_only():
    for where, line in _lines("rules.py"):
        assert not INLINE.search(line), where


def test_only_the_spec_reader_catches_rule_errors():
    # the caller passes its error class to `real` and `integer` instead
    for where, line in _lines("specio.py"):
        assert "except StructureError" not in line, where


def test_rules_import_no_package_module():
    text = (PACKAGE / "rules.py").read_text(encoding="utf-8")
    assert not re.search(r"^\s*from \.", text, re.MULTILINE)
