"""The base class of every typed input error."""


class InputError(ValueError):
    """Bad external input: malformed bytes, query text, or file content.

    The CLI reports one as a single ``repro: error:`` line with exit
    status 2 instead of a traceback.
    """
