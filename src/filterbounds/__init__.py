"""Membership filter models under permissive operation sequences, plus the
counting machinery that prices their space.

The package studies what happens when a dynamic approximate-membership
filter must also accept duplicate insertions and deletions of absent
elements: the value types in core and the sequence algebra and rewriters
in sequences, filter models in filters, the witness query transform in
witness, the snapshot-pair static conversion in reduction, the counting
bounds and injective dataset coding in bounds, the experiment harness in
harness, the violation demo in demo, and the CLI in cli.

Importing the package loads none of these modules and re-exports nothing:
each name is imported from the module that defines it, so a command that
imports only filterbounds.cli compiles only the modules it runs.
"""

__version__ = "0.1.0"
