class InvalidInput(ValueError):
    """User-supplied data violates a documented precondition."""


class SoundnessError(RuntimeError):
    """A certificate failed its replay.

    Raised by the replays.  When a builder's replay of its own output
    raises it, the library has a bug.  When the replay of a report inside
    `reports.verify_payload` raises it, the report is at fault, and
    `verify_payload` raises `InvalidInput("report rejected: ...")`
    instead.
    """
