"""Shared exception types, and the line reader of the text formats.

The CLI maps these to exit codes: ParseError (and I/O problems) exit with
code 2, PreconditionError with code 3.
"""


class ParseError(ValueError):
    """Malformed textual input (graph files, Cayley tables, expressions).

    `line` is 1-based when the input is line-oriented, else None.
    """

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class PreconditionError(ValueError):
    """A mathematical precondition of an operation does not hold."""


def content_lines(text: str) -> list:
    """(line number from 1, stripped text) of each nonblank line, in every
    text format: `#` starts a comment that runs to the end of its line."""
    lines = enumerate(text.splitlines(), start=1)
    return [(n, s) for n, line in lines if (s := line.split("#", 1)[0].strip())]
