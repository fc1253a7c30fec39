"""README's python blocks run as written, and its key table and bounds
agree with `config`'s rows, so a renamed or removed name or key cannot
leave the README stale."""

import ast
import re
from pathlib import Path

from canvolt import config

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_readme_python_block_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_the_key_table_lists_each_selector_values_keys():
    """README's key table lists, for each section and selector value,
    exactly the keys `config.ROWS` takes; an `every` row adds its keys to
    each value the table lists."""
    body = README.read_text().split("| Section | Key set by | Keys it takes |\n")[1]
    listed, every = {}, {}
    for line in body.splitlines()[1:]:
        if not line.startswith("|"):
            break
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if cells[0]:
            section = re.fullmatch(r"`\[(\w+)(\.<name>)?\]`", cells[0]).group(1)
        keys = set() if cells[2].startswith("none") else set(re.findall(r"`(\w+)`", cells[2]))
        setters = re.findall(r"`([^`]+)`", cells[1])
        if cells[1].startswith("every"):
            assert setters == [config.SECTIONS[section].selector]
            every[section] = keys
            continue
        values = [None]
        if setters:
            selector, _, first = setters[0].partition(" = ")
            assert selector == config.SECTIONS[section].selector
            values = [first, *setters[1:]]
        for value in values:
            listed.setdefault((section, value), set()).update(keys)
    got = {(s, v): keys | every.get(s, set()) for (s, v), keys in listed.items()}
    assert got == {sel: set(rows) for sel, rows in config.ROWS.items()}


def clause_keys(text: str, pattern: str) -> set:
    """The keys in backticks in the clause that `pattern` matches."""
    return set(re.findall(r"`(\w+)`", re.search(pattern, text).group(1)))


def test_the_bounds_paragraph_names_each_keys_bound():
    text = " ".join(README.read_text().split())
    bounds = {
        "positive": clause_keys(text, r"([^;.]*) must be positive;"),
        "non-negative": clause_keys(text, r"([^;.]*) must not be negative\."),
        "any": clause_keys(text, r"Every number must be finite, except ([^(]*)\("),
    }
    numbers = [row for row in config.KEYS if row.codec is config.FLOAT]
    assert bounds == {b: {row.key for row in numbers if row.bound == b} for b in bounds}


def names_in(code: str) -> set:
    """The names that python code imports, reads or reads an attribute by."""
    names = set()
    for n in ast.walk(ast.parse(code)):
        if isinstance(n, ast.alias):
            names.add(n.asname or n.name)
        elif isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
    return names


def test_every_export_has_a_caller_or_a_reason():
    """Each name that `canvolt/__init__.py` imports from a module is read by
    the code of another `src/canvolt` module, or named in code (a python
    block or a backtick span) in README's library surface, which says why
    it is public. Docstrings and comments are no callers."""
    package = Path(config.__file__).parent
    init = ast.parse((package / "__init__.py").read_text())
    exports = {a.asname or a.name for n in init.body if isinstance(n, ast.ImportFrom) for a in n.names}
    read = set()
    for path in package.glob("*.py"):
        if path.name != "__init__.py":
            read |= names_in(path.read_text())
    surface = README.read_text().split("## Library surface\n")[1].split("\n## ")[0]
    pattern = r"^```python\n(.*?)^```"
    named = set().union(*map(names_in, re.findall(pattern, surface, re.M | re.S)))
    for span in re.findall(r"`([^`\n]+)`", re.sub(pattern, "", surface, flags=re.M | re.S)):
        named.update(re.findall(r"\w+", span))
    assert sorted(exports - read - named) == []
