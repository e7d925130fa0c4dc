package repro.exp

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.data.{ERDataGen, ERDataset}
import repro.forest.RfAl
import repro.jedai.JedaiPipelines
import scala.collection.mutable

/** Table runners shared by `bench/` (sbt "bench/test") and `jobs/`
  * (spark-submit). Every runner returns printable rows pairing the paper's
  * number with ours; AL runs are memoized so rows shared across tables
  * (e.g. Table 2's DIAL = Table 4's "Random" = Table 5's "Contrastive")
  * are computed once per JVM.
  *
  * Env knobs: REPRO_SCALE (dataset scale, default 1.0 of the DESIGN.md §4
  * sizes), REPRO_ROUNDS (AL labeling rounds, default 4; paper 10),
  * REPRO_BUDGET (labels per round, default 192; paper 128 — a larger
  * per-round budget compensates the reduced round count so the total label
  * volume stays comparable to the paper's 1344).
  */
object Experiments {

  val scale: Double = sys.env.getOrElse("REPRO_SCALE", "1.0").toDouble
  val rounds: Int = sys.env.getOrElse("REPRO_ROUNDS", "4").toInt
  val budget: Int = sys.env.getOrElse("REPRO_BUDGET", "192").toInt

  lazy val benchmarks: IndexedSeq[ERDataset] = ERDataGen.benchmarks(scale)
  lazy val multilingual: ERDataset = ERDataGen.multilingualDefault(scale = scale)

  /** Paper §4.2: Abt-Buy uses k = 20 and CAND = 20·|S| (its S is tiny). */
  def cfgFor(ds: ERDataset): DialConfig = {
    val base = DialConfig(rounds = rounds, budget = budget)
    val k = if (ds.name == "Abt-Buy") base.copy(k = 20, candMult = 20.0) else base
    if (ds.name == "MultiLingual") k.copy(trainG = false) else k
  }

  // ------------------------------------------------------------ run cache

  private val cache = mutable.HashMap.empty[String, RunResult]

  def dialRun(spark: SparkSession, ds: ERDataset, cfg: DialConfig): RunResult = synchronized {
    val key = s"${ds.name}/${ds.r.size}x${ds.s.size}/$cfg"
    cache.getOrElseUpdate(key, {
      Console.err.println(s"[exp] running ${cfg.blockerMode.name} on ${ds.name} ($key)")
      new Dial(spark, ds, cfg).run()
    })
  }

  private def fmt(x: Double): String = f"$x%6.1f"
  private def fmtT(x: Double): String = f"$x%7.2f"

  // -------------------------------------------------------------- tables

  /** Table 1: dataset statistics (ours vs paper). */
  def table1(spark: SparkSession): Seq[String] = {
    val all = benchmarks :+ multilingual
    val header = f"${"Dataset"}%-16s ${"|R|"}%7s ${"|S|"}%7s ${"DUPS"}%7s ${"ratio"}%9s ${"|Dtest|"}%8s   paper(|R|,|S|,DUPS,|Dtest|)"
    header +: all.map { ds =>
      val ratio = ds.dups.size.toDouble / (ds.r.size.toDouble * ds.s.size)
      val p = PaperNumbers.table1(PaperNumbers.key(ds.name))
      f"${ds.name}%-16s ${ds.r.size}%7d ${ds.s.size}%7d ${ds.dups.size}%7d $ratio%9.1e ${ds.testPairs.size}%8d   (${p._1}, ${p._2}, ${p._3}, ${p._4})"
    }
  }

  /** Table 2: end-of-AL all-pairs P/R/F1 + runtime for all eight methods. */
  def table2(spark: SparkSession): Seq[String] = {
    val rows = mutable.ArrayBuffer.empty[String]
    rows += f"${"Dataset"}%-16s ${"Method"}%-22s ${"P"}%6s ${"R"}%6s ${"F1"}%6s ${"RT(s)"}%8s | paper  P      R      F1     RT"
    benchmarks.foreach { ds =>
      val key = PaperNumbers.key(ds.name)
      def row(r: RunResult): Unit = {
        val p = PaperNumbers.table2(r.method)(key)
        rows += f"${ds.name}%-16s ${r.method}%-22s ${fmt(r.allPRF.p)} ${fmt(r.allPRF.r)} ${fmt(r.allPRF.f1)} ${fmtT(r.findAllSec)} |       ${fmt(p._1)} ${fmt(p._2)} ${fmt(p._3)} ${fmtT(p._4)}"
      }
      row(RfAl.run(spark, ds, rounds, budget))
      row(JedaiPipelines.schemaBased(spark, ds))
      row(JedaiPipelines.schemaAgnostic(spark, ds))
      IndexedSeq(SentenceBertMode, PairedFixedMode, PairedAdaptMode, RulesMode, IbcMode).foreach { mode =>
        row(dialRun(spark, ds, cfgFor(ds).copy(blockerMode = mode)))
      }
    }
    rows.toSeq
  }

  /** Table 3: multilingual all-pairs P/R/F1. */
  def table3(spark: SparkSession): Seq[String] = {
    val ds = multilingual
    val rows = mutable.ArrayBuffer.empty[String]
    rows += f"${"Method"}%-14s ${"P"}%6s ${"R"}%6s ${"F1"}%6s | paper  P      R      F1"
    IndexedSeq(PairedFixedMode, PairedAdaptMode, IbcMode).foreach { mode =>
      // PairedAdapt by definition fine-tunes the TPLM; DIAL/PairedFixed keep
      // it frozen on the multilingual set (§4.5 found freezing better).
      val cfg0 = cfgFor(ds).copy(blockerMode = mode)
      val cfg = if (mode == PairedAdaptMode) cfg0.copy(trainG = true) else cfg0
      val r = dialRun(spark, ds, cfg)
      val p = PaperNumbers.table3(r.method)
      rows += f"${r.method}%-14s ${fmt(r.allPRF.p)} ${fmt(r.allPRF.r)} ${fmt(r.allPRF.f1)} |       ${fmt(p._1)} ${fmt(p._2)} ${fmt(p._3)}"
    }
    rows.toSeq
  }

  /** Rows of an ablation table: per metric an optional title and a header,
    * then per variant the metric on every benchmark dataset beside the
    * paper's figure (looked up by variant name and metric key).
    */
  private def ablation(spark: SparkSession, label: String, width: Int,
                       metrics: Seq[(String, RunResult => Double, String)],
                       variants: Seq[(String, ERDataset => DialConfig)],
                       paper: (String, String) => Map[String, Double]): Seq[String] = {
    def cell(name: String) = s"%-${width}s".format(name)
    metrics.flatMap { case (metricKey, metric, title) =>
      (if (title.isEmpty) Nil else Seq(s"-- $title --")) ++
        Seq(cell(label) + PaperNumbers.dsKeys.map(k => f"$k%7s").mkString +
            "   | paper:" + PaperNumbers.dsKeys.map(k => f"$k%7s").mkString) ++
        variants.map { case (vname, cfg) =>
          val vals = benchmarks.map(ds => metric(dialRun(spark, ds, cfg(ds))))
          val p = paper(vname, metricKey)
          cell(vname) + vals.map(v => f"$v%7.1f").mkString +
            "   |      :" + PaperNumbers.dsKeys.map(k => f"${p(k)}%7.1f").mkString
        }
    }
  }

  private val recallM = ("recall", (r: RunResult) => r.candRecall, "Recall of CAND")
  private val testM = ("test", (r: RunResult) => r.testPRF.f1, "Test Evaluation")
  private val allM = ("all", (r: RunResult) => r.allPRF.f1, "All Pairs Evaluation")

  /** Table 4: labeled vs random negatives for the committee. */
  def table4(spark: SparkSession): Seq[String] =
    ablation(spark, "Negatives", 10, Seq(recallM, testM, allM),
      Seq("Labeled" -> LabeledNegs, "Random" -> RandomNegs).map { case (v, mode) =>
        v -> ((ds: ERDataset) => cfgFor(ds).copy(negMode = mode)) },
      (v, m) => PaperNumbers.table4((v, m)))

  /** Table 5: blocker training objective. */
  def table5(spark: SparkSession): Seq[String] =
    ablation(spark, "Objective", 15, Seq(testM, allM),
      Seq("Classification" -> Classification, "Triplet" -> Triplet, "Contrastive" -> Contrastive)
        .map { case (v, obj) => v -> ((ds: ERDataset) => cfgFor(ds).copy(objective = obj)) },
      (v, m) => PaperNumbers.table5((v, m)))

  /** Table 6: candidate-set size (Small = 3·|DUPS|; Medium/Large per paper). */
  def table6(spark: SparkSession): Seq[String] = {
    def mult(ds: ERDataset, abtBuy: Double, other: Double) =
      cfgFor(ds).copy(candMult = if (ds.name == "Abt-Buy") abtBuy else other, candSizeOverride = None)
    ablation(spark, "CAND", 8, Seq(recallM.copy(_3 = "Recall"), allM),
      Seq[(String, ERDataset => DialConfig)](
        "Small" -> (ds => cfgFor(ds).copy(candSizeOverride = Some(3 * ds.dups.size))),
        "Medium" -> (ds => mult(ds, 10.0, 3.0)),
        "Large" -> (ds => mult(ds, 20.0, 5.0))),
      (v, m) => PaperNumbers.table6((v, m)))
  }

  /** Table 7: committee size N ∈ {1, 3, 5}. */
  def table7(spark: SparkSession): Seq[String] =
    ablation(spark, "N", 4, Seq(testM, allM),
      Seq(1, 3, 5).map(n => n.toString -> ((ds: ERDataset) => cfgFor(ds).copy(committeeN = n))),
      (v, m) => PaperNumbers.table7((v.toInt, m)))

  /** Table 8: example-selection strategies (all-pairs F1). */
  def table8(spark: SparkSession): Seq[String] =
    ablation(spark, "Method", 13, Seq(allM.copy(_3 = "")),
      Seq[Strategy](RandomSel, GreedySel, Partition2, Partition4, QbcSel, BadgeSel, UncertaintySel)
        .map(st => st.name -> ((ds: ERDataset) => cfgFor(ds).copy(selector = st))),
      (v, _) => PaperNumbers.table8(v))

  /** Table 9: time per operation in the final AL round of DIAL. */
  def table9(spark: SparkSession): Seq[String] = {
    val runs = benchmarks.map(ds => ds -> dialRun(spark, ds, cfgFor(ds)))
    val ops = IndexedSeq[(String, OpTimes => Double)](
      "Train Matcher" -> (_.matcherSec),
      "Train Committee" -> (_.committeeSec),
      "Indexing & Retrieval" -> (_.retrieveSec),
      "Selection" -> (_.selectSec))
    val rows = mutable.ArrayBuffer.empty[String]
    rows += f"${"Operation"}%-22s" + PaperNumbers.dsKeys.map(k => f"$k%8s").mkString +
            "   | paper:" + PaperNumbers.dsKeys.map(k => f"$k%8s").mkString
    ops.foreach { case (name, get) =>
      val vals = runs.map { case (_, r) => get(r.lastTimes) }
      val paper = PaperNumbers.table9(name)
      rows += f"$name%-22s" + vals.map(v => f"$v%8.2f").mkString +
              "   |      :" + PaperNumbers.dsKeys.map(k => f"${paper(k)}%8.1f").mkString
    }
    rows.toSeq
  }

  /** Table 10: testing time (find-all-duplicates pass) vs committee size. */
  def table10(spark: SparkSession): Seq[String] = {
    val rows = mutable.ArrayBuffer.empty[String]
    rows += f"${"Method"}%-14s" + PaperNumbers.dsKeys.map(k => f"$k%8s").mkString +
            "   | paper:" + PaperNumbers.dsKeys.map(k => f"$k%8s").mkString
    IndexedSeq(1, 3, 10).foreach { n =>
      val vals = benchmarks.map { ds =>
        new Dial(spark, ds, cfgFor(ds).copy(committeeN = n)).timedFindAll(n)
      }
      val paper = PaperNumbers.table10(n)
      rows += s"DIAL (N=$n)".padTo(14, ' ') + vals.map(v => f"$v%8.2f").mkString +
              "   |      :" + PaperNumbers.dsKeys.map(k => f"${paper(k)}%8.1f").mkString
    }
    rows.toSeq
  }

  /** Every table runner, by paper table number. */
  val tables: Map[Int, SparkSession => Seq[String]] = Map(
    1 -> table1 _, 2 -> table2 _, 3 -> table3 _, 4 -> table4 _, 5 -> table5 _,
    6 -> table6 _, 7 -> table7 _, 8 -> table8 _, 9 -> table9 _, 10 -> table10 _)

  def printTable(title: String, rows: Seq[String]): Unit = {
    println(s"\n==== $title ====")
    rows.foreach(println)
    println()
  }
}
