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
loads cli, harness, filters, combinat and core; only the runners of verify,
bounds, encode and decode load bounds, only the sweeps of verify, encode
and decode load witness and reduction, and only demo-violations loads
sequences and demo, so fp-rate compiles none of these six when no bytecode
is cached.
"""

__version__ = "0.1.0"
