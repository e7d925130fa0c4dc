package repro.bench

import repro.SparkSpec
import repro.exp.Experiments

/** Reproduces paper Tables 1–10, one test each; prints paper-vs-measured rows.
  * One table: `sbt "bench/testOnly repro.bench.TablesBench -- -t \"table 4\""`.
  */
class TablesBench extends SparkSpec {
  for (n <- Experiments.tables.keys.toSeq.sorted)
    test(s"table $n") {
      Experiments.printTable(s"Table $n", Experiments.tables(n)(spark))
    }
}
