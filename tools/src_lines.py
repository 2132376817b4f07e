"""Count the lines and code lines of each module of a source tree.

A code line is a non-blank line that holds a token other than a comment or
a docstring (the string that opens a module, class or function body).
Docstrings are found with `ast` and tokens with `tokenize`, so a string
spread over lines counts on each line it spans.

    python3 tools/src_lines.py [DIR]    # DIR defaults to src/

Prints one row per ``.py`` file under DIR, then the totals.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_starts(tree: ast.AST) -> set[tuple[int, int]]:
    """(line, column) at which each docstring of ``tree`` starts."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, _BODIES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                starts.add((first.value.lineno, first.value.col_offset))
    return starts


def count(text: str) -> tuple[int, int]:
    """(lines, code lines) of one module's source."""
    docs = docstring_starts(ast.parse(text))
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type in _NOT_CODE or (tok.type == tokenize.STRING and tok.start in docs):
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code)


def main(argv: list[str]) -> int:
    root = argv[1] if len(argv) > 1 else "src"
    paths = sorted(
        os.path.join(folder, name)
        for folder, _, names in os.walk(root)
        for name in names
        if name.endswith(".py")
    )
    total_lines = total_code = 0
    print(f"{'module':<40} {'lines':>6} {'code':>6}")
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            lines, code = count(fh.read())
        total_lines += lines
        total_code += code
        print(f"{os.path.relpath(path, root):<40} {lines:>6} {code:>6}")
    print(f"{'total':<40} {total_lines:>6} {total_code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
