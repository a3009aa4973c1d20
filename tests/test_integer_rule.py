"""`nested_logit.integer` is the one rule of what an integer is; a second
copy of it elsewhere in the package must fail here."""

import re

from conftest import REPO_ROOT

# the forms an inline integer test takes
INLINE = re.compile(r"operator\.index|numbers\.Integral|isinstance\(.*\bbool")


def test_integer_rule_lives_in_nested_logit_only():
    for path in sorted((REPO_ROOT / "src" / "marketclear").glob("*.py")):
        if path.name == "nested_logit.py":
            continue
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            assert not INLINE.search(line), f"{path.name}:{number}: {line.strip()}"
