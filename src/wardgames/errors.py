"""Exception types shared across the package.

The CLI maps these onto exit codes: ScenarioError (and subclasses) exit 2,
everything runtime-ish exits 1.
"""


class ScenarioError(ValueError):
    """Invalid scenario, profile, parameter path, or schema input.

    `names` holds the arguments of the called function that a check refused,
    such as ("lo", "hi"), so a caller can say which of its inputs fed them;
    it is empty for a refusal of anything else, such as a scenario field.
    """

    def __init__(self, message: str, names: tuple[str, ...] = ()) -> None:
        super().__init__(message)
        self.names = names


class NumericalError(RuntimeError):
    """A numerical procedure left its validity envelope (e.g. dt too large)."""


class ResourceLimitError(RuntimeError):
    """An exact computation would exceed the configured size cap."""


class BracketError(RuntimeError):
    """A root bracket does not actually bracket a sign/predicate change."""
