"""Membership filter models under permissive operation sequences, plus the
counting machinery that prices their space.

The package studies what happens when a dynamic approximate-membership
filter must also accept duplicate insertions and deletions of absent
elements: the record base in core, the operation language in sequences,
filter models in filters, the witness query transform in witness, the
snapshot-pair static conversion in reduction, the counting bounds and
injective dataset coding in bounds, the experiment harness in harness, the
violation demo in demo, and the CLI in cli.

Importing the package loads none of these modules and re-exports nothing:
each name is imported from the module that defines it.  Every command
imports harness, and so compiles witness, reduction and bounds when no
bytecode is cached, though fp-rate runs none of them.
"""

__version__ = "0.1.0"
