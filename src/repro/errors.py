"""The typed input errors shared across layers."""


class InputError(ValueError):
    """Bad external input: malformed bytes, query text, or file content.

    The CLI reports one as a single ``repro: error:`` line with exit
    status 2 instead of a traceback.
    """


class SynopsisFormatError(InputError):
    """Raised when loading malformed or incompatible synopsis data.

    Both codecs raise it: the JSON interchange format
    (:mod:`repro.core.serialization`) and the binary snapshot format
    (:mod:`repro.core.snapshot`).  It lives here so that loading a
    snapshot does not import the JSON codec.
    """
