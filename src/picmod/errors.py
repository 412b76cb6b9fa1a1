"""The one exception type of picmod.

Every failure the package detects (a bad config, a quantity off the
sample grid, a fit or calibration that cannot succeed, a diverged lock,
a trace with no transition) raises `PicmodError` with a message that says
what went wrong; the CLI prints that message and exits 2."""


class PicmodError(Exception):
    """A picmod failure, described by its message."""
