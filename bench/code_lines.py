"""Count the code lines of a package's modules, for a size comparison between checkouts.

    python bench/code_lines.py [PACKAGE_DIR]

counts, in every `.py` file under PACKAGE_DIR (default: this checkout's
`src/ellsqueeze`), the lines that hold code: a line counts when a token
other than a comment starts, ends or spans it, and no line of a module,
class or function docstring counts.  Blank lines and comment lines do not
count.  It prints one `module lines` row per file, sorted by module name,
then the total.  Two checkouts compare by running it on each side's
package directory.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ellsqueeze"
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """Lines of `source` that hold a token other than a comment, outside docstrings."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, SCOPES) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def main(argv) -> int:
    package = Path(argv[0]) if argv else PACKAGE
    counts = {path.relative_to(package).with_suffix("").as_posix().replace("/", "."):
              code_lines(path.read_text()) for path in sorted(package.rglob("*.py"))}
    width = max(map(len, counts), default=0)
    for module, count in counts.items():
        print(f"{module:<{width}}  {count:5d}")
    print(f"{'total':<{width}}  {sum(counts.values()):5d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
