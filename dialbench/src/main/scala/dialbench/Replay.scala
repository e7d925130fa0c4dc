package dialbench

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types.{IntegerType, StructField, StructType}
import repro.core._
import repro.index.{EmbView, ExactIndex, SparkKnn}
import repro.util.Rnd
import scala.collection.mutable

/** Correctness failures collected during one benchmark run. */
final class Checks {
  val failures: mutable.ArrayBuffer[String] = mutable.ArrayBuffer.empty

  def check(ok: Boolean, what: => String): Unit = if (!ok) failures += what
}

/** Diagnosis counters of one round of the replay. */
final case class RoundDiag(
    round: Int, nLabeled: Int, nPos: Int, cand: Int, repeatFrac: Double,
    hits: Long, uniqueFrac: Double, memberUnique: Double,
    matcherLoss: Double, committeeLoss: Double, committeeSteps: Long,
    pool: Int, batchPosFrac: Double, roundSec: Double)

/** Driver-side split of one CAND scoring pass. */
final case class ScoreSplit(featurizeSec: Double, mlpSec: Double)

/** What one replay produced. `runSec` excludes the diagnosis work done
  * between the timed calls.
  */
final case class ReplayResult(stats: IndexedSeq[RoundStat], diags: IndexedSeq[RoundDiag],
                              split: ScoreSplit, runSec: Double)

/** Replays `Dial.run()` and `Dial.timedFindAll(n)` step for step through the
  * public entry points of each layer, timing every call from outside.
  *
  * Each step mirrors the private code path of [[Dial]] with the same seeds,
  * so a replay on a fresh `Dial` must reproduce `Dial.run()`'s round
  * statistics exactly; the caller checks that. Between the timed calls it
  * computes diagnosis counters and the correctness references: a driver-side
  * brute-force CAND, and driver-side matcher probabilities.
  */
final class Replay(spark: SparkSession, dial: Dial, tr: Tracer, checks: Checks) {
  private val ds = dial.ds
  private val cfg = dial.cfg
  private val embedder = dial.embedder
  private val d = cfg.embedDim
  private var diagNs = 0L

  private val scalarCache = mutable.HashMap.empty[(Int, Int), Array[Double]]

  private def scalars(rId: Int, sId: Int): Array[Double] =
    scalarCache.getOrElseUpdate((rId, sId),
      embedder.featurizer.scalars(ds.rById(rId).attrs, ds.sById(sId).attrs))

  private def trainEx(lp: LabeledPair): TrainEx =
    TrainEx(embedder.rBase(lp.rId), embedder.sBase(lp.sId),
            scalars(lp.rId, lp.sId), if (lp.y) 1.0 else 0.0)

  private def diag[A](body: => A): A = {
    val t0 = System.nanoTime()
    try body finally diagNs += System.nanoTime() - t0
  }

  private def trainMatcher(t: IndexedSeq[LabeledPair], round: Int): (Matcher, Double) =
    tr.span("matcher.train", round) {
      val m = new Matcher(d, Rnd.combine(cfg.seed, 100 + round))
      val loss = m.train(t.map(trainEx), cfg.matcherEpochs, batch = 16,
        new Rnd.Gen(Rnd.combine(cfg.seed, 200 + round)), trainG = cfg.trainG)
      (m, loss)
    }

  private def trainCommittee(t: IndexedSeq[LabeledPair], matcher: Matcher, round: Int,
                             n: Int): (Committee, Double, Long) =
    tr.span("committee.train", round) {
      val com = Committee.init(n, d, cfg.maskP, Rnd.combine(cfg.seed, 300 + round))
      val g = matcher.g
      val pos = t.filter(_.y).map(lp => (embedder.adaptedR(lp.rId, g), embedder.adaptedS(lp.sId, g)))
      val negs = t.filterNot(_.y).map(lp => (embedder.adaptedR(lp.rId, g), embedder.adaptedS(lp.sId, g)))
      val rPool = ds.r.indices.map(i => embedder.adaptedR(i, g))
      val sPool = ds.s.indices.map(i => embedder.adaptedS(i, g))
      val tc = Committee.TrainConfig(objective = cfg.objective, negMode = cfg.negMode,
                                     epochs = cfg.blockerEpochs)
      val loss = Committee.train(com, tc, pos, rPool, sPool, negs,
                                 new Rnd.Gen(Rnd.combine(cfg.seed, 400 + round)))
      val steps = tc.epochs.toLong * ((pos.length + tc.batch - 1) / tc.batch) * n
      (com, loss, steps)
    }

  /** Index build and probe; returns CAND plus the views for the diagnosis. */
  private def retrieve(matcher: Matcher, com: Committee, sDf: DataFrame,
                       round: Int): (IndexedSeq[CandPair], IndexedSeq[EmbView]) = {
    val views = com.members.map(m => new MemberView(matcher.g, m): EmbView)
    val idx = tr.span("index.build", round)(Blocker.buildIndexes(embedder.rBase, views))
    val cand = tr.span("retrieve", round)(
      Blocker.retrieveCand(spark, ds, sDf, dial.emb, views, idx, cfg.k, dial.candSize))
    (cand, views)
  }

  private val pairSchema = StructType(Array(
    StructField("rid", IntegerType, nullable = false),
    StructField("sid", IntegerType, nullable = false)))

  private def score(matcher: Matcher, cand: IndexedSeq[CandPair], round: Int): IndexedSeq[ScoredCand] =
    if (cand.isEmpty) IndexedSeq.empty
    else tr.span("score", round) {
      val rows = cand.map(c => Row(c.rId, c.sId))
      val candDf = spark.createDataFrame(
        spark.sparkContext.parallelize(rows, math.max(1, cand.size / 4000)), pairSchema)
      val rMap = ds.r.map(x => x.id -> x.attrs).toMap
      val sMap = ds.s.map(x => x.id -> x.attrs).toMap
      val scored = SparkKnn.scorePairs(spark, candDf, rMap, sMap,
          new MatcherScorer(dial.emb, embedder.featurizer, matcher))
        .collect().map(r => ((r.getInt(0), r.getInt(1)), r.getDouble(2))).toMap
      cand.map(c => ScoredCand(c.rId, c.sId, c.dist, scored((c.rId, c.sId))))
    }

  /** Brute-force top-k of every member on the driver, merged by smallest
    * distance and ordered by (dist, rid, sid): the reference CAND. Also
    * returns raw hits, the unique share, and mean hits found by one member only.
    */
  private def checkCand(cand: IndexedSeq[CandPair], views: IndexedSeq[EmbView],
                        round: Int): (Long, Double, Double) = diag {
    val ids = Array.tabulate(ds.r.size)(identity)
    val members = views.map(v => (v, new ExactIndex(ids, embedder.rBase.map(v.apply))))
    val best = mutable.HashMap.empty[(Int, Int), Double]
    val finders = mutable.HashMap.empty[(Int, Int), Int] // member id, or -1 if several
    var hits = 0L
    ds.s.indices.foreach { sid =>
      val base = embedder.sBase(sid)
      members.indices.foreach { m =>
        val (view, index) = members(m)
        index.search(view(base), cfg.k).foreach { case (rid, dist) =>
          hits += 1
          val key = (rid, sid)
          if (best.get(key).forall(dist < _)) best(key) = dist
          finders(key) = finders.get(key) match {
            case Some(other) if other != m => -1
            case _ => m
          }
        }
      }
    }
    val expected = best.toIndexedSeq
      .sortBy { case ((rid, sid), dist) => (dist, rid, sid) }
      .take(dial.candSize)
      .map { case ((rid, sid), dist) => CandPair(rid, sid, dist) }
    checks.check(cand == expected,
      s"round $round: CAND from Blocker.retrieveCand (${cand.size} pairs) differs from the " +
      s"driver-side brute-force merge (${expected.size} pairs)")
    val soloHits = finders.values.count(_ >= 0).toDouble
    (hits, best.size.toDouble / math.max(1L, hits), soloHits / views.length)
  }

  /** Times featurization and the MLP separately on the driver, and checks the
    * Spark-scored probabilities against `Matcher.prob`.
    */
  private def splitScore(matcher: Matcher, scored: IndexedSeq[ScoredCand], round: Int): ScoreSplit =
    diag {
      val t0 = System.nanoTime()
      val feats = scored.map(c => embedder.featurizer.scalars(ds.rById(c.rId).attrs, ds.sById(c.sId).attrs))
      val t1 = System.nanoTime()
      val probs = scored.indices.map(i =>
        matcher.prob(embedder.rBase(scored(i).rId), embedder.sBase(scored(i).sId), feats(i)))
      val t2 = System.nanoTime()
      val mismatches = scored.indices.count(i => probs(i) != scored(i).prob)
      checks.check(mismatches == 0,
        s"round $round: $mismatches of ${scored.size} scorePairs probabilities differ from Matcher.prob")
      ScoreSplit((t1 - t0) / 1e9, (t2 - t1) / 1e9)
    }

  private def selectorCtx(t: IndexedSeq[LabeledPair], matcher: Matcher, round: Int): SelectorCtx =
    SelectorCtx(
      rng = new Rnd.Gen(Rnd.combine(cfg.seed, 500 + round)),
      gradEmbedding = c => matcher.gradEmbedding(
        embedder.rBase(c.rId), embedder.sBase(c.sId), scalars(c.rId, c.sId)),
      bootstrapProbs = cands => tr.span("select.bootstrap", round) {
        val boot = new Rnd.Gen(Rnd.combine(cfg.seed, 600 + round))
        (0 until 3).map { k =>
          val resampled = IndexedSeq.fill(t.length)(t(boot.nextInt(t.length)))
          val m = new Matcher(d, Rnd.combine(cfg.seed, 700 + round * 10 + k))
          m.train(resampled.map(trainEx), epochs = 8, batch = 16,
                  new Rnd.Gen(Rnd.combine(cfg.seed, 800 + round * 10 + k)), trainG = cfg.trainG)
          cands.map(c => m.prob(embedder.rBase(c.rId), embedder.sBase(c.sId),
                                scalars(c.rId, c.sId))).toArray
        }
      },
    )

  /** The round's quality figures, as `Dial.run()` computes them. */
  private def evaluate(t: IndexedSeq[LabeledPair], cand: IndexedSeq[CandPair],
                       scored: IndexedSeq[ScoredCand], round: Int): RoundStat =
    tr.span("metrics", round) {
      val predicted = scored.filter(_.prob > 0.5).map(c => (c.rId, c.sId)).toSet
      RoundStat(round, t.length, Metrics.candRecall(cand.map(c => (c.rId, c.sId)), ds.dups),
                Metrics.testEval(ds.testPairs, predicted).f1, Metrics.allPairs(predicted, ds.dups).f1)
    }

  private def cachedS(): DataFrame = tr.span("data.sdf", 0) {
    val df = ds.sDF(spark).cache(); df.count(); df
  }

  /** One pass of the loop up to evaluation: train, index, probe, score.
    * The returned diagnosis lacks the selection fields and the round time.
    */
  private def pass(t: IndexedSeq[LabeledPair], round: Int, n: Int, sDf: DataFrame,
                   split: Boolean): (Matcher, IndexedSeq[ScoredCand], RoundStat, RoundDiag, Option[ScoreSplit]) = {
    val (matcher, mLoss) = trainMatcher(t, round)
    val (com, cLoss, steps) = trainCommittee(t, matcher, round, n)
    val (cand, views) = retrieve(matcher, com, sDf, round)
    val (hits, uniqueFrac, memberUnique) = checkCand(cand, views, round)
    val scored = score(matcher, cand, round)
    val scoreSplit = if (split) Some(splitScore(matcher, scored, round)) else None
    val stat = evaluate(t, cand, scored, round)
    val diag = RoundDiag(round, t.length, t.count(_.y), cand.size, 0.0, hits, uniqueFrac,
                         memberUnique, mLoss, cLoss, steps, 0, 0.0, 0.0)
    (matcher, scored, stat, diag, scoreSplit)
  }

  /** The AL loop of `Dial.run()`: `cfg.rounds` labeling rounds and a final
    * evaluation pass.
    */
  def run(): ReplayResult = {
    val t0 = System.nanoTime()
    var t = tr.span("seed", 0)(dial.seedSet())
    val labeled = mutable.HashSet.empty[(Int, Int)] ++= t.map(lp => (lp.rId, lp.sId))
    val sDf = cachedS()
    val stats = mutable.ArrayBuffer.empty[RoundStat]
    val diags = mutable.ArrayBuffer.empty[RoundDiag]
    var prevCand = Set.empty[(Int, Int)]
    var split = ScoreSplit(0, 0)
    for (round <- 1 to cfg.rounds + 1) {
      val isFinal = round == cfg.rounds + 1
      val r0 = System.nanoTime(); val diag0 = diagNs
      val (matcher, scored, stat, diag, roundSplit) = pass(t, round, cfg.committeeN, sDf, split = isFinal)
      roundSplit.foreach(split = _)
      stats += stat
      val candKeys = scored.iterator.map(c => (c.rId, c.sId)).toSet
      val repeatFrac = if (round == 1) 0.0 else candKeys.count(prevCand.contains).toDouble / math.max(1, scored.size)
      prevCand = candKeys
      var pool = 0; var batchPos = 0.0
      if (!isFinal) {
        val newly = tr.span("select", round) {
          val selectable = scored.filterNot(c =>
            labeled.contains((c.rId, c.sId)) || ds.testSet.contains((c.rId, c.sId)))
          pool = selectable.size
          Selectors.select(cfg.selector, selectable, cfg.budget, selectorCtx(t, matcher, round))
            .map { case (a, b) => LabeledPair(a, b, ds.dups.contains((a, b))) }
        }
        batchPos = newly.count(_.y).toDouble / math.max(1, newly.size)
        t = t ++ newly
        labeled ++= newly.map(lp => (lp.rId, lp.sId))
      }
      val roundSec = (System.nanoTime() - r0 - (diagNs - diag0)) / 1e9
      diags += diag.copy(repeatFrac = repeatFrac, pool = pool, batchPosFrac = batchPos, roundSec = roundSec)
    }
    sDf.unpersist()
    ReplayResult(stats.toIndexedSeq, diags.toIndexedSeq, split, (System.nanoTime() - t0 - diagNs) / 1e9)
  }

  /** The testing pass of `Dial.timedFindAll(n)`: one training on the seed set,
    * then index, probe and score.
    */
  def findAll(n: Int): ReplayResult = {
    val t0 = System.nanoTime()
    val t = tr.span("seed", 0)(dial.seedSet())
    val sDf = cachedS()
    val (_, _, stat, diag, split) = pass(t, 1, n, sDf, split = true)
    sDf.unpersist()
    val runSec = (System.nanoTime() - t0 - diagNs) / 1e9
    ReplayResult(IndexedSeq(stat), IndexedSeq(diag.copy(roundSec = runSec)), split.get, runSec)
  }
}
