package repro.core

import org.apache.spark.sql.SparkSession
import repro.data.ERDataset
import repro.index.{EmbView, ExactIndex}
import repro.rules.RulesBlocker
import repro.text.HashEmbedding
import repro.util.{PairCache, Par, Rnd}
import scala.collection.mutable

/** Which blocking strategy feeds the candidate set (paper §4.3). */
sealed trait BlockerMode { def name: String }
case object IbcMode extends BlockerMode { val name = "DIAL" }
case object PairedFixedMode extends BlockerMode { val name = "PairedFixed" }
case object PairedAdaptMode extends BlockerMode { val name = "PairedAdapt" }
case object SentenceBertMode extends BlockerMode { val name = "SentenceBERT" }
case object RulesMode extends BlockerMode { val name = "Rules" }

/** Full configuration of one AL run. Defaults follow the paper (§4.2),
  * rescaled to container size per DESIGN.md §4.
  */
final case class DialConfig(
    blockerMode: BlockerMode = IbcMode,
    committeeN: Int = 3,
    maskP: Double = 0.75,
    k: Int = 3,
    candMult: Double = 3.0,
    candSizeOverride: Option[Int] = None,
    rounds: Int = 4,
    budget: Int = 128,
    seedPos: Int = 64,
    seedNeg: Int = 64,
    objective: Objective = Contrastive,
    negMode: NegMode = RandomNegs,
    selector: Strategy = UncertaintySel,
    matcherEpochs: Int = 20,
    blockerEpochs: Int = 150,
    trainG: Boolean = true,
    embedDim: Int = 64,
    seed: Long = 7,
)

/** Wall-clock (seconds) of the operations of one AL round (paper Table 9). */
final case class OpTimes(matcherSec: Double, committeeSec: Double,
                         retrieveSec: Double, selectSec: Double)

/** Quantities tracked per round (the progressive curves of Figures 4–7). */
final case class RoundStat(round: Int, nLabeled: Int, candRecall: Double,
                           testF1: Double, allF1: Double)

/** Outcome of one full AL run. */
final case class RunResult(
    method: String, dsName: String,
    roundStats: IndexedSeq[RoundStat],
    candRecall: Double,
    testPRF: PRF, allPRF: PRF,
    lastTimes: OpTimes,
    findAllSec: Double,
    nLabeled: Int,
)

/** DIAL's active-learning loop (Algorithm 1) plus every baseline blocking
  * mode, sharing the matcher, selector and evaluation machinery so that the
  * comparisons isolate exactly the blocking strategy, as in the paper.
  *
  * Labels come from the gold oracle. After `cfg.rounds` labeling rounds a
  * final train + block + match pass produces the end-of-AL evaluation.
  */
final class Dial(spark: SparkSession, val ds: ERDataset, val cfg: DialConfig) {

  val embedder: Embedder = Dial.embedderFor(ds, cfg.embedDim)
  val emb: HashEmbedding = embedder.emb
  val candSize: Int = cfg.candSizeOverride.getOrElse((cfg.candMult * ds.s.size).toInt)
  private val d = cfg.embedDim
  private val rng = new Rnd.Gen(Rnd.combine(cfg.seed, Rnd.hash64(ds.name)))

  /** Pair-feature profiles of every record of R and S, indexed by id, over
    * one trigram dictionary. They belong to this run, not to the shared
    * [[Embedder]], so they are freed with it.
    */
  private lazy val profiles: (Array[PairProfile], Array[PairProfile]) = {
    val dict = new TrigramDict
    def of(recs: IndexedSeq[repro.data.Rec]) = recs.map(rec => embedder.featurizer.profile(rec.attrs, dict)).toArray
    (of(ds.r), of(ds.s))
  }

  /** Pair scalars of the whole run. They do not depend on the matcher, so
    * scoring, training examples, BADGE and QBC all share one cache.
    */
  private val scalars = new PairCache((rId, sId) =>
    embedder.featurizer.scalars(profiles._1(rId), profiles._2(sId)))

  private def trainEx(lp: LabeledPair): TrainEx =
    TrainEx(embedder.rBase(lp.rId), embedder.sBase(lp.sId),
            scalars(lp.rId, lp.sId), if (lp.y) 1.0 else 0.0)

  // ------------------------------------------------------------- seed set

  /** Inverted token index over R for hard-negative seed sampling. */
  private lazy val tokenIndex: Map[String, IndexedSeq[Int]] = {
    val m = mutable.HashMap.empty[String, mutable.ArrayBuffer[Int]]
    ds.r.foreach(rec => rec.tokenSet.foreach(t => m.getOrElseUpdate(t, mutable.ArrayBuffer.empty) += rec.id))
    m.view.mapValues(_.toIndexedSeq).toMap
  }

  /** Initial labeled seed T: `seedPos` duplicates and `seedNeg` negatives
    * sampled outside the test split. For the multilingual dataset the seed
    * is built by probing a pretrained-embedding index, as in §4.5.
    */
  def seedSet(): IndexedSeq[LabeledPair] = {
    if (ds.germanToEnglish.nonEmpty) return multilingualSeed()
    val dupSeq = ds.dups.toIndexedSeq.sorted.filterNot(ds.testSet.contains)
    val pos = rng.sampleDistinct(dupSeq.length, math.min(cfg.seedPos, dupSeq.length))
      .map(dupSeq).map { case (a, b) => LabeledPair(a, b, y = true) }
    val negs = mutable.LinkedHashSet.empty[(Int, Int)]
    var attempts = 0
    while (negs.size < cfg.seedNeg && attempts < cfg.seedNeg * 200) {
      attempts += 1
      val s = ds.s(rng.nextInt(ds.s.size))
      val hard = negs.size % 2 == 0
      val rIdOpt =
        if (hard) {
          val toks = s.tokenSet.toIndexedSeq
          if (toks.isEmpty) None
          else tokenIndex.get(toks(rng.nextInt(toks.length)))
            .map(ids => ids(rng.nextInt(ids.length)))
        } else Some(rng.nextInt(ds.r.size))
      rIdOpt.foreach { rId =>
        val pair = (rId, s.id)
        if (!ds.dups.contains(pair) && !ds.testSet.contains(pair)) negs += pair
      }
    }
    (pos.toIndexedSeq ++ negs.toIndexedSeq.map { case (a, b) => LabeledPair(a, b, y = false) })
  }

  /** §4.5 seed construction: probe a pretrained-embedding index with every s,
    * split retrieved pairs by gold, sample 50/50.
    */
  private def multilingualSeed(): IndexedSeq[LabeledPair] = {
    val idx = new ExactIndex(Array.tabulate(ds.r.size)(identity), embedder.rBase)
    val retrieved = ds.s.indices.flatMap { sId =>
      idx.search(embedder.sBase(sId), 3).map { case (rId, _) => (rId, sId) }
    }.filterNot(ds.testSet.contains)
    val (dup, non) = retrieved.partition(ds.dups.contains)
    val pos = rng.sampleDistinct(dup.length, math.min(cfg.seedPos, dup.length))
      .map(dup).map { case (a, b) => LabeledPair(a, b, y = true) }
    val neg = rng.sampleDistinct(non.length, math.min(cfg.seedNeg, non.length))
      .map(non).map { case (a, b) => LabeledPair(a, b, y = false) }
    pos.toIndexedSeq ++ neg
  }

  // ------------------------------------------------------------- training

  private def trainMatcher(t: IndexedSeq[LabeledPair], round: Int): Matcher = {
    // re-initialised from "pretrained weights" every round, as in §4.2
    val m = new Matcher(d, Rnd.combine(cfg.seed, 100 + round))
    m.train(t.map(trainEx), cfg.matcherEpochs, batch = 16,
            new Rnd.Gen(Rnd.combine(cfg.seed, 200 + round)), trainG = cfg.trainG)
    m
  }

  /** A committee of `n` heads trained on T over the matcher-adapted
    * embeddings, seeded by `initSalt`/`trainSalt` + round. When T lacks the
    * labels the objective needs (no positives, or no negatives under
    * `LabeledNegs`), training is skipped and the initialised members are used
    * as they are.
    */
  private def trainCommittee(t: IndexedSeq[LabeledPair], matcher: Matcher, round: Int,
                             n: Int, maskP: Double, objective: Objective, negMode: NegMode,
                             initSalt: Int, trainSalt: Int): Committee = {
    val com = Committee.init(n, d, maskP, Rnd.combine(cfg.seed, initSalt + round))
    val (posT, negT) = t.partition(_.y)
    if (posT.nonEmpty && (negMode == RandomNegs || negT.nonEmpty)) {
      val g = matcher.g
      def adapted(lps: IndexedSeq[LabeledPair]) =
        lps.map(lp => (embedder.adaptedR(lp.rId, g), embedder.adaptedS(lp.sId, g)))
      Committee.train(com, Committee.TrainConfig(objective, negMode, cfg.blockerEpochs),
        adapted(posT), ds.r.indices.map(embedder.adaptedR(_, g)), ds.s.indices.map(embedder.adaptedS(_, g)),
        adapted(negT), new Rnd.Gen(Rnd.combine(cfg.seed, trainSalt + round)))
    }
    com
  }

  // ------------------------------------------------------------- blocking

  /** CAND of PairedFixed or Rules, with its retrieval seconds: it does not
    * change from round to round, so it is computed once per run.
    */
  private var fixedCand: Option[(IndexedSeq[CandPair], Double)] = None

  private def timed[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = body
    (a, (System.nanoTime() - t0) / 1e9)
  }

  /** Probes every view's index over R with all of S, on the driver from the
    * cached S base embeddings ([[Blocker.probe]]); the seconds exclude
    * building the indexes.
    */
  private def retrieve(views: IndexedSeq[EmbView]): (IndexedSeq[CandPair], Double) = {
    val idx = Blocker.buildIndexes(embedder.rBase, views)
    timed(Blocker.probe(embedder.sBase, views, idx, cfg.k, candSize))
  }

  /** The round's CAND under `cfg.blockerMode` (paper §4.3: the baselines
    * differ from DIAL only here), with the committee-training and retrieval
    * seconds. `n` is the IBC committee size.
    */
  private def block(t: IndexedSeq[LabeledPair], matcher: Matcher, round: Int,
                    n: Int): (IndexedSeq[CandPair], Double, Double) = {
    def viaCommittee(size: Int, maskP: Double, objective: Objective, negMode: NegMode,
                     initSalt: Int, trainSalt: Int) = {
      val (com, committeeSec) =
        timed(trainCommittee(t, matcher, round, size, maskP, objective, negMode, initSalt, trainSalt))
      val (cand, retrieveSec) = retrieve(com.members.map(m => new MemberView(matcher.g, m): EmbView))
      (cand, committeeSec, retrieveSec)
    }
    def fixed(compute: => (IndexedSeq[CandPair], Double)) = {
      if (fixedCand.isEmpty) fixedCand = Some(compute)
      val (cand, retrieveSec) = fixedCand.get
      (cand, 0.0, retrieveSec)
    }
    cfg.blockerMode match {
      case IbcMode => viaCommittee(n, cfg.maskP, cfg.objective, cfg.negMode, 300, 400)
      // a single full-dimension head trained with the classification
      // objective on the actively labeled data T
      case SentenceBertMode => viaCommittee(1, 1.0, Classification, LabeledNegs, 900, 950)
      case PairedAdaptMode =>
        val (cand, retrieveSec) = retrieve(IndexedSeq(new ScaleView(matcher.g)))
        (cand, 0.0, retrieveSec)
      case PairedFixedMode => fixed(retrieve(IndexedSeq(new PlainView)))
      case RulesMode => fixed {
        val (pairs, retrieveSec) = timed(Dial.rulesFor(spark, ds))
        (pairs.map { case (a, b) => CandPair(a, b, 0.0) }, retrieveSec)
      }
    }
  }

  // -------------------------------------------------------------- scoring

  /** Matcher probabilities of CAND, on the driver: pair scalars from the
    * run's cache, embeddings from the [[Embedder]]'s base vectors. Equal bit
    * for bit to `SparkKnn.scorePairs` with a [[MatcherScorer]], which
    * recomputes both per pair.
    */
  private[core] def scoreCand(matcher: Matcher, cand: IndexedSeq[CandPair]): (IndexedSeq[ScoredCand], Double) =
    timed {
      val feats = scalars.all(cand.map(c => (c.rId, c.sId)))
      val probs = new Array[Double](cand.length)
      Par.foreach(cand.length) { i =>
        probs(i) = matcher.prob(embedder.rBase(cand(i).rId), embedder.sBase(cand(i).sId), feats(i))
      }
      cand.indices.map(i => ScoredCand(cand(i).rId, cand(i).sId, cand(i).dist, probs(i)))
    }

  // ------------------------------------------------------------ selection

  private def selectorCtx(t: IndexedSeq[LabeledPair], matcher: Matcher, round: Int): SelectorCtx =
    SelectorCtx(
      rng = new Rnd.Gen(Rnd.combine(cfg.seed, 500 + round)),
      gradEmbedding = c => matcher.gradEmbedding(
        embedder.rBase(c.rId), embedder.sBase(c.sId), scalars(c.rId, c.sId)),
      bootstrapProbs = cands => {
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

  // ------------------------------------------------------------- the loop

  /** One train matcher → block → score pass of round `round`. */
  private def pass(t: IndexedSeq[LabeledPair], round: Int, n: Int): Dial.Pass = {
    val (matcher, matcherSec) = timed(trainMatcher(t, round))
    val (cand, committeeSec, retrieveSec) = block(t, matcher, round, n)
    val (scored, scoreSec) = scoreCand(matcher, cand)
    Dial.Pass(matcher, cand, scored, matcherSec, committeeSec, retrieveSec, scoreSec)
  }

  def run(): RunResult = loop()._1

  /** [[run]], also returning the final labeled set T. */
  private[core] def loop(): (RunResult, IndexedSeq[LabeledPair]) = {
    var t = seedSet()
    val labeledSet = mutable.LinkedHashSet.empty[(Int, Int)]
    t.foreach(lp => labeledSet += ((lp.rId, lp.sId)))
    val stats = mutable.ArrayBuffer.empty[RoundStat]
    var lastTimes = OpTimes(0, 0, 0, 0)
    var findAllSec = 0.0
    var finalTest = PRF(0, 0, 0); var finalAll = PRF(0, 0, 0); var finalRecall = 0.0

    var round = 1
    val totalRounds = cfg.rounds + 1 // labeling rounds + final evaluation pass
    while (round <= totalRounds) {
      val isFinal = round == totalRounds
      Console.err.println(s"[dial] ${ds.name} ${cfg.blockerMode.name} round=$round " +
        s"|T|=${t.length} |T_p|=${t.count(_.y)}")
      val p = pass(t, round, cfg.committeeN)

      val predicted = p.scored.filter(_.prob > 0.5).map(c => (c.rId, c.sId)).toSet
      val recall = Metrics.candRecall(p.cand.map(c => (c.rId, c.sId)), ds.dups)
      val testPRF = Metrics.testEval(ds.testPairs, predicted)
      val allPRF = Metrics.allPairs(predicted, ds.dups)
      stats += RoundStat(round, t.length, recall, testPRF.f1, allPRF.f1)

      if (!isFinal) {
        val (sel, selectSec) = timed {
          val selectable = p.scored.filterNot { c =>
            labeledSet.contains((c.rId, c.sId)) || ds.testSet.contains((c.rId, c.sId))
          }
          Selectors.select(cfg.selector, selectable, cfg.budget, selectorCtx(t, p.matcher, round))
        }
        val newly = sel.map { case (a, b) => LabeledPair(a, b, ds.dups.contains((a, b))) }
        t = t ++ newly
        newly.foreach(lp => labeledSet += ((lp.rId, lp.sId)))
        // Table 9 semantics: "Selection" includes the matcher inference over
        // CAND that feeds the uncertainty scores; retrieval is pure IBC.
        lastTimes = OpTimes(p.matcherSec, p.committeeSec, p.retrieveSec, p.scoreSec + selectSec)
      } else {
        finalTest = testPRF; finalAll = allPRF; finalRecall = recall
        findAllSec = p.retrieveSec + p.scoreSec
      }
      round += 1
    }
    (RunResult(cfg.blockerMode.name, ds.name, stats.toIndexedSeq, finalRecall,
               finalTest, finalAll, lastTimes, findAllSec, t.length), t)
  }

  /** One timed "find all duplicates" pass at a given committee size, after a
    * single training on the seed set (paper Table 10: testing time vs N).
    */
  def timedFindAll(n: Int): Double = {
    val p = pass(seedSet(), round = 1, n)
    p.retrieveSec + p.scoreSec
  }
}

object Dial {
  private val embedders = mutable.HashMap.empty[(ERDataset, Int), Embedder]
  private val rulesCache = mutable.HashMap.empty[ERDataset, IndexedSeq[(Int, Int)]]

  /** What one pass of a round produced, with the seconds of its layers. */
  private final case class Pass(matcher: Matcher, cand: IndexedSeq[CandPair],
                                scored: IndexedSeq[ScoredCand], matcherSec: Double,
                                committeeSec: Double, retrieveSec: Double, scoreSec: Double)

  /** Base embeddings are a pure function of (dataset, dim) — share across
    * runs. Keyed by the dataset itself: two datasets of one shape from
    * different generator seeds must not share embeddings.
    */
  def embedderFor(ds: ERDataset, dim: Int): Embedder = synchronized {
    embedders.getOrElseUpdate((ds, dim),
      new Embedder(new HashEmbedding(dim, 42L, ds.germanToEnglish), ds))
  }

  /** Rule candidate sets are fixed per dataset — share across runs. */
  def rulesFor(spark: SparkSession, ds: ERDataset): IndexedSeq[(Int, Int)] = synchronized {
    rulesCache.getOrElseUpdate(ds, RulesBlocker.candidates(spark, ds))
  }
}
