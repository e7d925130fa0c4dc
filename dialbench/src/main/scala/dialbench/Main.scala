package dialbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core._
import repro.data.{ERDataGen, ERDataset}
import repro.text.HashEmbedding
import scala.collection.mutable

/** One benchmark workload. The seed feeds both the dataset generator and
  * `DialConfig.seed`; `findAllN` selects the Table 10 testing pass instead of
  * the AL loop.
  */
final case class Workload(name: String, dataset: Long => ERDataset,
                          config: Long => DialConfig, findAllN: Option[Int] = None)

object Workloads {
  /** Dataset scale and loop size are chosen so one call takes a few seconds
    * on 4 cores, and a run repeats it several times (see README.md).
    */
  val all: Seq[Workload] = Seq(
    Workload("al-wa", s => ERDataGen.walmartAmazon(s, scale = 0.12),
      s => DialConfig(committeeN = 3, selector = UncertaintySel, rounds = 1, budget = 48,
                      seedPos = 24, seedNeg = 24, seed = s)),
    Workload("al-da-qbc", s => ERDataGen.dblpAcm(s, scale = 0.1),
      s => DialConfig(committeeN = 5, selector = QbcSel, rounds = 1, budget = 32,
                      seedPos = 16, seedNeg = 16, seed = s)),
    Workload("findall-ds", s => ERDataGen.dblpScholar(s, scale = 0.1),
      s => DialConfig(committeeN = 10, seedPos = 32, seedNeg = 32, seed = s), findAllN = Some(10)),
  )
}

final case class Metric(name: String, value: Double, unit: String)

/** One timed set-up: total seconds and the data-generation and embedding parts. */
final case class SetupRep(ds: ERDataset, embedder: Embedder, sec: Double, genSec: Double, embedSec: Double)

object Main {
  final case class Opts(workload: Workload, seed: Long, seconds: Int, trace: Boolean)

  private def usage(msg: String): Nothing = {
    System.err.println(s"dialbench: $msg\nusage: --workload <${Workloads.all.map(_.name).mkString("|")}> " +
      "--seed <n> --seconds <n> --trace <0|1>")
    sys.exit(2)
  }

  private def parse(args: Array[String]): Opts = {
    if (args.length % 2 != 0) usage("arguments come in --name value pairs")
    val m = args.grouped(2).map(a => a(0) -> a(1)).toMap
    def arg(k: String): String = m.getOrElse(k, usage(s"missing $k"))
    val w = Workloads.all.find(_.name == arg("--workload")).getOrElse(usage("unknown workload"))
    val trace = arg("--trace") match {
      case "0" => false
      case "1" => true
      case _ => usage("--trace takes 0 or 1")
    }
    val seed = arg("--seed").toLongOption.getOrElse(usage("--seed takes an integer"))
    val seconds = arg("--seconds").toIntOption.filter(_ > 0).getOrElse(usage("--seconds takes a positive integer"))
    Opts(w, seed, seconds, trace)
  }

  /** Mirrors `JobMain.withSpark`: 64 shuffle partitions, no broadcast joins, no UI. */
  private def session(): SparkSession = SparkSession.builder()
    .master(s"local[${Runtime.getRuntime.availableProcessors}]")
    .appName("dialbench")
    .config("spark.sql.shuffle.partitions", "64")
    .config("spark.sql.autoBroadcastJoinThreshold", -1)
    .config("spark.ui.enabled", "false")
    .config("spark.driver.host", "127.0.0.1")
    .getOrCreate()

  def main(args: Array[String]): Unit = {
    val opts = parse(args)
    val spark = session()
    val bench = new Bench(spark, opts)
    val finished =
      try { bench.run(); true }
      catch {
        case e: Exception =>
          System.err.println(s"dialbench: run aborted: $e")
          e.printStackTrace()
          false
      } finally spark.stop()
    if (!finished) sys.exit(1)
    bench.report()
    if (bench.checks.failures.nonEmpty) sys.exit(1)
  }
}

/** One benchmark run: set-up, the measured calls, checks and the report. */
final class Bench(spark: SparkSession, opts: Main.Opts) {
  import Bench._
  val checks = new Checks
  private val w = opts.workload
  private val cfg = w.config(opts.seed)
  private var attempted = 0
  private var failed = 0
  private val metrics = mutable.ArrayBuffer.empty[Metric]
  private val rounds = mutable.ArrayBuffer.empty[RoundDiag]
  private var traceFile = Option.empty[String]

  private def put(name: String, value: Double, unit: String): Unit = {
    checks.check(!value.isNaN && !value.isInfinite, s"metric $name is $value")
    metrics += Metric(name, value, unit)
  }

  /** Runs one operation, counting it as attempted and, if it throws or
    * fails a check, as failed.
    */
  private def attempt[A](what: String)(body: => A): Option[A] = {
    attempted += 1
    val before = checks.failures.size
    try {
      val a = body
      if (checks.failures.size > before) failed += 1
      Some(a)
    } catch {
      case e: Exception =>
        failed += 1
        checks.failures += s"$what threw $e"
        None
    }
  }

  /** Cold set-up before round 1: generate the data, build a fresh `Embedder`
    * (base embeddings + IDF featurizer, as `Dial.embedderFor` would), and
    * cache the S DataFrame. A fresh `Embedder` is needed because
    * `Dial.embedderFor` memoizes it for the whole JVM.
    */
  private def setupOnce(): SetupRep = {
    val t0 = System.nanoTime()
    val ds = w.dataset(opts.seed)
    val t1 = System.nanoTime()
    val emb = new Embedder(new HashEmbedding(cfg.embedDim, 42L, ds.germanToEnglish), ds)
    val t2 = System.nanoTime()
    val sDf: DataFrame = ds.sDF(spark).cache()
    sDf.count()
    val t3 = System.nanoTime()
    sDf.unpersist(blocking = true)
    SetupRep(ds, emb, (t3 - t0) / 1e9, (t1 - t0) / 1e9, (t2 - t1) / 1e9)
  }

  /** Runs the set-up `SetupReps` times and checks that the embeddings the
    * program will use are those of this dataset.
    */
  private def setup(): IndexedSeq[SetupRep] = {
    val reps = (1 to SetupReps).map(_ => setupOnce())
    val fresh = reps.last.embedder
    val used = Dial.embedderFor(fresh.ds, cfg.embedDim)
    checks.check(java.util.Arrays.deepEquals(used.rBase.asInstanceOf[Array[AnyRef]], fresh.rBase.asInstanceOf[Array[AnyRef]]) &&
      java.util.Arrays.deepEquals(used.sBase.asInstanceOf[Array[AnyRef]], fresh.sBase.asInstanceOf[Array[AnyRef]]),
      "Dial.embedderFor returns base embeddings of another dataset")
    reps
  }

  /** One untraced call of the program as shipped; returns (seconds,
    * find-all seconds, result of `Dial.run()` if that was the call).
    */
  private def call(ds: ERDataset): (Double, Double, Option[RunResult]) = {
    val dial = new Dial(spark, ds, cfg)
    val t0 = System.nanoTime()
    w.findAllN match {
      case Some(n) =>
        val fa = dial.timedFindAll(n)
        ((System.nanoTime() - t0) / 1e9, fa, None)
      case None =>
        val res = dial.run()
        ((System.nanoTime() - t0) / 1e9, res.findAllSec, Some(res))
    }
  }

  private def checkRun(res: RunResult): Unit = {
    val st = res.roundStats
    checks.check(st.map(_.round) == (1 to cfg.rounds + 1), s"round numbers ${st.map(_.round)}")
    checks.check(st.zip(st.tail).forall { case (a, b) => b.nLabeled > a.nLabeled && b.nLabeled - a.nLabeled <= cfg.budget },
      s"|T| per round ${st.map(_.nLabeled)} does not grow by 1..${cfg.budget}")
    checks.check(st.forall(s => Seq(s.candRecall, s.testF1, s.allF1).forall(v => v >= 0 && v <= 100)),
      "a quality figure lies outside [0, 100]")
    checks.check(res.candRecall == st.last.candRecall && res.allPRF.f1 == st.last.allF1 &&
      res.testPRF.f1 == st.last.testF1 && res.nLabeled == st.last.nLabeled,
      "RunResult disagrees with its last RoundStat")
    checks.check(res.findAllSec > 0, "find-all time is not positive")
  }

  def run(): Unit = if (opts.trace) traced() else untraced()

  private def orAbort[A](a: Option[A]): A =
    a.getOrElse(throw new IllegalStateException(checks.failures.mkString("; ")))

  /** A warm-up first, then calls of the program as shipped until
    * `opts.seconds` have passed, and at least `MinReps` times. The warm-up
    * is not timed: it is `Dial.run()`, whose result later calls must
    * reproduce, or for find-all the replay, which yields the quality figures
    * `timedFindAll` does not return.
    */
  private def untraced(): Unit = {
    val reps = setup()
    val ds = reps.last.ds
    put("setup_s", median(reps.map(_.sec)), "s")
    val (reference, quality) = w.findAllN match {
      case None =>
        val ref = orAbort(attempt("warm-up call")(call(ds)))._3
        ref.foreach(checkRun)
        (ref, ref.get.roundStats.last)
      case Some(_) =>
        (None, orAbort(attempt("warm-up replay")(replay(ds, new Tracer(spark.sparkContext)))).stats.last)
    }
    def checkedCall(what: String): (Double, Double) = {
      val (sec, fa, res) = orAbort(attempt(what)(call(ds)))
      res.foreach { r =>
        checkRun(r)
        checks.check(reference.forall(_.roundStats == r.roundStats),
          s"$what: round statistics differ from the first call with the same seed")
      }
      (sec, fa)
    }
    checkedCall("second warm-up call")
    val runs = mutable.ArrayBuffer.empty[(Double, Double)]
    val start = System.nanoTime()
    while (runs.size < MinReps || (System.nanoTime() - start) / 1e9 < opts.seconds)
      runs += checkedCall(s"call ${runs.size + 1}")
    println(f"calls timed: ${runs.size} (after the warm-up); run_s samples: " +
      runs.map(r => f"${r._1}%.3f").mkString(" ") + "; find_all_s samples: " + runs.map(r => f"${r._2}%.3f").mkString(" "))
    put("run_s", median(runs.map(_._1).toSeq), "s")
    put("find_all_s", median(runs.map(_._2).toSeq), "s")
    put("cand_recall", quality.candRecall, "%")
    put("heap_mb", heapMb(), "MB")
  }

  private def replay(ds: ERDataset, tr: Tracer): ReplayResult = {
    val rp = new Replay(spark, new Dial(spark, ds, cfg), tr, checks)
    try w.findAllN.fold(rp.run())(rp.findAll) finally tr.close()
  }

  private def traced(): Unit = {
    val reps = setup()
    val ds = reps.last.ds
    // the JIT warm-up, and the reference the replay must reproduce
    val reference = orAbort(attempt("reference call")(call(ds)))._3
    reference.foreach(checkRun)
    val tr = new Tracer(spark.sparkContext)
    val rp = orAbort(attempt("traced replay")(replay(ds, tr)))
    reference.foreach(ref => checks.check(ref.roundStats == rp.stats,
      s"replay round statistics ${rp.stats} differ from Dial.run() ${ref.roundStats}"))
    val untracedSec = orAbort(attempt("untraced call")(call(ds)))._1
    rounds ++= rp.diags
    val last = rp.diags.last
    val labeling = rp.diags.filter(_.pool > 0)
    def mean(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else xs.sum / xs.size

    put("data.gen_s", median(reps.map(_.genSec)), "s")
    put("embed.base_s", median(reps.map(_.embedSec)), "s")
    put("matcher.train_s", tr.total("matcher.train"), "s")
    put("matcher.examples", last.nLabeled, "count")
    put("matcher.loss", last.matcherLoss, "1")
    put("committee.train_s", tr.total("committee.train"), "s")
    put("committee.positives", last.nPos, "count")
    put("committee.steps", rp.diags.map(_.committeeSteps).sum.toDouble, "count")
    put("committee.loss", last.committeeLoss, "1")
    put("index.build_s", tr.total("index.build"), "s")
    put("retrieve_s", tr.total("retrieve"), "s")
    put("retrieve.hits", rp.diags.map(_.hits).sum.toDouble, "count")
    put("retrieve.unique_frac", mean(rp.diags.map(_.uniqueFrac)), "1")
    put("retrieve.member_unique", mean(rp.diags.map(_.memberUnique)), "count")
    put("score_s", tr.total("score"), "s")
    put("score.pairs", rp.diags.map(_.cand).sum, "count")
    put("score.repeat_frac", mean(rp.diags.drop(1).map(_.repeatFrac)), "1")
    put("featurize_s", rp.split.featurizeSec, "s")
    put("mlp_s", rp.split.mlpSec, "s")
    put("select_s", tr.total("select"), "s")
    put("select.bootstrap_s", tr.total("select.bootstrap"), "s")
    put("select.pool", labeling.map(_.pool).sum, "count")
    put("select.batch_pos_frac", mean(labeling.map(_.batchPosFrac)), "1")
    put("metrics_s", tr.total("metrics"), "s")
    put("metrics.all_f1", rp.stats.last.allF1, "%")
    put("metrics.test_f1", rp.stats.last.testF1, "%")
    put("round_s", median((if (labeling.isEmpty) rp.diags else labeling).map(_.roundSec)), "s")
    for (layer <- Seq("retrieve", "score")) {
      val c = tr.listener.cost(layer)
      put(s"spark.$layer.tasks", c.tasks.toDouble, "count")
      put(s"spark.$layer.executor_s", c.executorMs / 1e3, "s")
      put(s"spark.$layer.shuffle_bytes", c.shuffleBytes.toDouble, "B")
      put(s"spark.$layer.gc_s", c.gcMs / 1e3, "s")
    }
    put("trace.overhead_frac", rp.runSec / untracedSec - 1.0, "1")
    traceFile = Some(writeTrace(tr.spans, rp.diags))
  }

  private def writeTrace(spans: Seq[Span], diags: Seq[RoundDiag]): String = {
    val dir = new java.io.File(".bench_build/traces")
    dir.mkdirs()
    val f = new java.io.File(dir, s"${w.name}-seed${opts.seed}.jsonl")
    val out = new java.io.PrintWriter(f, "UTF-8")
    try {
      val t0 = spans.map(_.startNs).minOption.getOrElse(0L)
      spans.foreach(s => out.println(
        s"""{"span":"${s.name}","round":${s.round},"start_s":${(s.startNs - t0) / 1e9},"sec":${s.sec}}"""))
      diags.foreach(d => out.println(roundJson(d)))
    } finally out.close()
    f.getPath
  }

  def report(): Unit = {
    rounds.foreach(d => println(s"round ${roundJson(d)}"))
    traceFile.foreach(f => println(s"trace written to $f"))
    checks.failures.foreach(f => println(s"CHECK FAILED: $f"))
    println(f"${"metric"}%-28s ${"value"}%16s  unit")
    metrics.foreach(m => println(f"${m.name}%-28s ${m.value}%16.6f  ${m.unit}"))
    println(f"${"failed_frac"}%-28s ${failed.toDouble / math.max(1, attempted)}%16.6f  1   ($failed of $attempted calls)")
    val body = metrics.map(m => s""""${m.name}": {"value": ${num(m.value)}, "unit": "${m.unit}"}""")
    println(s"""{"correct": ${checks.failures.isEmpty}, "attempted": $attempted, "failed": $failed, """ +
            s""""metrics": {${body.mkString(", ")}}}""")
  }
}

object Bench {
  val SetupReps = 3
  val MinReps = 5

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.isEmpty) Double.NaN
    else if (s.size % 2 == 1) s(s.size / 2)
    else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  /** Used heap after a forced full collection. */
  def heapMb(): Double = {
    val rt = Runtime.getRuntime
    System.gc(); System.gc()
    (rt.totalMemory - rt.freeMemory) / (1024.0 * 1024.0)
  }

  def num(x: Double): String = if (x.isNaN || x.isInfinite) "null" else x.toString

  def roundJson(d: RoundDiag): String =
    s"""{"round":${d.round},"T":${d.nLabeled},"T_p":${d.nPos},"cand":${d.cand},""" +
    s""""score.repeat_frac":${d.repeatFrac},"retrieve.hits":${d.hits},""" +
    s""""retrieve.unique_frac":${d.uniqueFrac},"retrieve.member_unique":${d.memberUnique},""" +
    s""""select.pool":${d.pool},"select.batch_pos_frac":${d.batchPosFrac},""" +
    s""""matcher.loss":${d.matcherLoss},"committee.loss":${d.committeeLoss},"round_s":${d.roundSec}}"""
}
