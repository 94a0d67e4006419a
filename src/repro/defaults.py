"""Defaults the CLI prints in ``--help``, in a module that imports nothing."""

#: Read size when streaming a document from a file handle.
DEFAULT_CHUNK_SIZE = 1 << 16
