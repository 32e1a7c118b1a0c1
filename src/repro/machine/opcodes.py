"""The opcode numbers by name (``ADD_RR``, ``LOAD_ABS`` ...), for code that
tests a decoded instruction's opcode; each is its form's in
:data:`repro.machine.semantics.ISA`."""

from repro.machine.semantics import ISA

globals().update((form.name, form.number) for m in ISA for form in m.forms)
