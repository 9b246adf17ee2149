"""Count the code lines of the Python files under a directory.

A code line holds a token that is not a comment, a newline or an indent,
and is not part of a module, class or function docstring.  Run it from the
repository root::

    python tools/code_lines.py src
"""

import ast
import io
import pathlib
import sys
import tokenize

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(text):
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main(root):
    print(sum(code_lines(path.read_text(encoding="utf-8"))
              for path in sorted(pathlib.Path(root).rglob("*.py"))))


if __name__ == "__main__":
    main(sys.argv[1])
