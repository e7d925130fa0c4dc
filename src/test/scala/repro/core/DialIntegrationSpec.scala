package repro.core

import java.util.concurrent.{LinkedBlockingQueue, TimeUnit}
import repro.SparkSpec
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.Row
import org.apache.spark.sql.types.{IntegerType, StructField, StructType}
import repro.data.ERDataGen
import repro.index.SparkKnn
import repro.util.{OnPool, Rnd}

/** End-to-end mini AL runs exercising Algorithm 1 and every blocking mode. */
class DialIntegrationSpec extends SparkSpec {
  private lazy val ds = ERDataGen.amazonGoogle(scale = 0.12)
  private val fastCfg = DialConfig(rounds = 1, budget = 16, seedPos = 12, seedNeg = 12,
                                   matcherEpochs = 6, blockerEpochs = 12, embedDim = 32)

  test("seed set has the requested composition and avoids the test split") {
    val dial = new Dial(spark, ds, fastCfg)
    val seed = dial.seedSet()
    assert(seed.count(_.y) == 12)
    assert(seed.count(!_.y) == 12)
    seed.foreach { lp =>
      assert(lp.y == ds.dups.contains((lp.rId, lp.sId)))
      assert(!ds.testSet.contains((lp.rId, lp.sId)))
    }
    assert(seed.map(lp => (lp.rId, lp.sId)).distinct.size == seed.size)
  }

  test("DIAL run completes with consistent bookkeeping") {
    val r = new Dial(spark, ds, fastCfg).run()
    assert(r.method == "DIAL")
    assert(r.roundStats.length == fastCfg.rounds + 1)
    assert(r.nLabeled == 24 + fastCfg.rounds * fastCfg.budget)
    assert(r.candRecall >= 0.0 && r.candRecall <= 100.0)
    assert(r.allPRF.tp + r.allPRF.fn == ds.dups.size)
    assert(r.findAllSec > 0.0)
    assert(r.roundStats.last.nLabeled == r.nLabeled)
  }

  test("labeled set grows by the budget each round") {
    val r = new Dial(spark, ds, fastCfg.copy(rounds = 2)).run()
    assert(r.roundStats.map(_.nLabeled) == IndexedSeq(24, 24 + 16, 24 + 32))
  }

  test("active learning improves all-pairs F1 over the first round") {
    val r = new Dial(spark, ds, fastCfg.copy(rounds = 2, budget = 32,
                                             matcherEpochs = 12, blockerEpochs = 30)).run()
    assert(r.roundStats.last.allF1 >= r.roundStats.head.allF1 - 8.0,
      s"F1 collapsed: ${r.roundStats.map(_.allF1)}")
  }

  test("PairedFixed keeps a fixed candidate recall across rounds") {
    val r = new Dial(spark, ds, fastCfg.copy(rounds = 2, blockerMode = PairedFixedMode)).run()
    assert(r.roundStats.map(_.candRecall).distinct.size == 1)
  }

  // Recorded before the blocking modes shared one round function; two rounds
  // exercise the fixed-CAND memo and SentenceBERT's per-round retraining.
  private val goldenRuns: Map[BlockerMode, String] = Map(
    IbcMode -> "075ad55a744b0fa6", PairedFixedMode -> "e865d9b8b554134e",
    PairedAdaptMode -> "bd6feffeed39ab69", SentenceBertMode -> "f56a7b57e320d696",
    RulesMode -> "91644c60dfef33f4")

  test("all blocking modes run end-to-end") {
    val actual = Seq(IbcMode, PairedFixedMode, PairedAdaptMode, SentenceBertMode, RulesMode).map { mode =>
      val r = new Dial(spark, ds, fastCfg.copy(rounds = 2, blockerMode = mode)).run()
      assert(r.method == mode.name)
      assert(r.roundStats.length == 3, mode.name)
      mode -> RunDigest(r)
    }
    assert(actual.toMap == goldenRuns)
  }

  test("the IBC golden digest holds on a one-thread fork-join pool") {
    val r = OnPool(1)(new Dial(spark, ds, fastCfg.copy(rounds = 2)).run())
    assert(RunDigest(r) == goldenRuns(IbcMode))
  }

  test("IBC and PairedAdapt runs start no Spark job") {
    val marker = "dial-spec-marker"
    // one entry per job start: whether it is the marker job
    val jobs = new LinkedBlockingQueue[java.lang.Boolean]
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        jobs.put(Option(e.properties).exists(_.getProperty(marker) != null))
    }
    spark.sparkContext.addSparkListener(listener)
    try Seq(IbcMode, PairedAdaptMode).foreach { mode =>
      new Dial(spark, ds, fastCfg.copy(blockerMode = mode)).run()
      // listener events arrive in order: every job before the marker job is the run's
      spark.sparkContext.setLocalProperty(marker, "1")
      try spark.sparkContext.parallelize(Seq(1), 1).count()
      finally spark.sparkContext.setLocalProperty(marker, null)
      var runJobs = 0
      var seenMarker = false
      while (!seenMarker) {
        val isMarker = jobs.poll(60, TimeUnit.SECONDS)
        assert(isMarker != null, "the marker job never reached the listener")
        if (isMarker) seenMarker = true else runJobs += 1
      }
      assert(runJobs == 0, s"${mode.name} started $runJobs Spark jobs")
    } finally spark.sparkContext.removeSparkListener(listener)
  }

  test("a seed set lacking the labels the committee objective needs still completes with gold labels") {
    // no positives for any objective; no negatives for SentenceBERT's LabeledNegs
    Seq(fastCfg.copy(seedPos = 0), fastCfg.copy(blockerMode = SentenceBertMode, seedNeg = 0)).foreach { cfg =>
      val (r, t) = new Dial(spark, ds, cfg.copy(rounds = 2)).loop()
      val seed = cfg.seedPos + cfg.seedNeg
      assert(r.roundStats.map(_.nLabeled) == IndexedSeq(seed, seed + 16, seed + 32), cfg)
      assert(t.length == r.nLabeled)
      t.foreach(lp => assert(lp.y == ds.dups.contains((lp.rId, lp.sId))))
    }
  }

  test("run is deterministic in config seed (metrics, not timings)") {
    def strip(r: RunResult) = (r.roundStats, r.candRecall, r.testPRF, r.allPRF, r.nLabeled)
    val a = new Dial(spark, ds, fastCfg).run()
    val b = new Dial(spark, ds, fastCfg).run()
    assert(strip(a) == strip(b))
  }

  test("different selectors select different labels but all complete") {
    Seq(RandomSel, GreedySel, Partition2, BadgeSel).foreach { st =>
      val r = new Dial(spark, ds, fastCfg.copy(selector = st)).run()
      assert(r.nLabeled == 24 + fastCfg.budget, st.name)
    }
  }

  test("candSizeOverride caps the candidate set") {
    val r = new Dial(spark, ds, fastCfg.copy(candSizeOverride = Some(40)))
    assert(r.candSize == 40)
  }

  test("multilingual seed construction via pretrained NN probing works") {
    val ml = ERDataGen.multilingual(120, 40, seed = 3)
    val dial = new Dial(spark, ml, fastCfg.copy(trainG = false, seedPos = 8, seedNeg = 8))
    val seed = dial.seedSet()
    assert(seed.count(_.y) == 8)
    assert(seed.count(!_.y) == 8)
  }

  test("timedFindAll returns a positive duration and scales to N=4") {
    val sec = new Dial(spark, ds, fastCfg).timedFindAll(2)
    assert(sec > 0.0)
  }

  test("driver-side CAND probabilities equal SparkKnn.scorePairs with MatcherScorer bit for bit") {
    val dial = new Dial(spark, ds, fastCfg)
    val emb = dial.embedder
    val matcher = new Matcher(fastCfg.embedDim, seed = 5)
    matcher.train(dial.seedSet().map(lp => TrainEx(emb.rBase(lp.rId), emb.sBase(lp.sId),
        emb.featurizer.scalars(ds.r(lp.rId).attrs, ds.s(lp.sId).attrs), if (lp.y) 1.0 else 0.0)),
      epochs = 6, batch = 16, new Rnd.Gen(6))
    val g = new Rnd.Gen(7)
    val pairs = (ds.dups.toSeq.sorted ++ Seq.fill(500)((g.nextInt(ds.r.size), g.nextInt(ds.s.size)))).distinct
    val cand = pairs.map { case (r, s) => CandPair(r, s, 0.0) }.toIndexedSeq
    val schema = StructType(Array(StructField("rid", IntegerType, nullable = false),
                                  StructField("sid", IntegerType, nullable = false)))
    val pairDf = spark.createDataFrame(
      spark.sparkContext.parallelize(pairs.map { case (r, s) => Row(r, s) }, 4), schema)
    val expected = SparkKnn.scorePairs(spark, pairDf, ds.r.map(x => x.id -> x.attrs).toMap,
        ds.s.map(x => x.id -> x.attrs).toMap, new MatcherScorer(dial.emb, emb.featurizer, matcher))
      .collect().map(r => (r.getInt(0), r.getInt(1)) -> r.getDouble(2)).toMap
    // the second pass is served from the run's pair cache
    Seq(cand, cand.reverse).foreach { c =>
      val (scored, _) = dial.scoreCand(matcher, c)
      assert(scored.map(x => (x.rId, x.sId)) == c.map(x => (x.rId, x.sId)))
      scored.foreach(x => assert(
        java.lang.Double.doubleToRawLongBits(x.prob) ==
          java.lang.Double.doubleToRawLongBits(expected((x.rId, x.sId))), s"pair (${x.rId}, ${x.sId})"))
    }
  }
}
