"""The reference semantics the package is judged by: :mod:`.xacml` for
evaluation and the request model, :mod:`.wire` for the query envelopes.
Slow and literal, taken from the standards and the README, never from
the code under test (``tests/observability/test_reference_lint.py``)."""
