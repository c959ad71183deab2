"""Session setup for the test suite."""

import warnings

# hypothesis imports libcst to report a failing example, and that import warns (DeprecationWarning from
# mypy_extensions); under filterwarnings = ["error"] the warning ended the session in INTERNALERROR, so
# libcst is imported once here with it ignored
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import libcst  # noqa: F401
    except ImportError:  # hypothesis reports without it
        pass
