// Package repro is a from-scratch Go reproduction of "Turning Scientists
// into Data Explorers" (Yağız Kargın, SIGMOD 2013 PhD Symposium): a
// database engine with two-stage query execution and automated lazy
// ingestion (ALi) over scientific file repositories.
//
// The implementation lives under internal/: internal/core is the engine
// (the paper's contribution), with the column store, relational engine,
// mSEED file format, repository generator and exploration layer as
// separate packages. Runnable entry points are under cmd/ and examples/;
// cmd/bench regenerates the paper's Table 1 and Figure 3. README.md
// describes the design section by section and, under "Reproducing the
// paper's evaluation", how to run the experiments; benchmark/README.md
// describes the repo's benchmark.
package repro
