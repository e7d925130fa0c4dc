package repro.jobs

import repro.exp.Experiments

/** spark-submit entrypoint reproducing one paper table: `TableJob <n>`. */
object TableJob {
  def main(args: Array[String]): Unit = {
    val n = args.headOption.flatMap(_.toIntOption).filter(Experiments.tables.contains)
    require(args.length == 1 && n.isDefined,
      s"usage: TableJob <n> with n in ${Experiments.tables.keys.toSeq.sorted.mkString(", ")}")
    JobMain.withSpark(s"dial-table${n.get}") { spark =>
      Experiments.printTable(s"Table ${n.get}", Experiments.tables(n.get)(spark))
    }
  }
}
