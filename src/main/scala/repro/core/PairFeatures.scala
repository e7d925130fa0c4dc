package repro.core

import repro.text.Tokenizer
import scala.collection.mutable

/** Schema-agnostic scalar similarity features of a record pair, standing in
  * for the paired-mode cross-attention signals a transformer extracts:
  *
  *  - plain token Jaccard and overlap, trigram Jaccard (robust surface sims);
  *  - corpus-IDF-weighted Jaccard — a transformer learns from pretraining
  *    which tokens are informative; IDF weighting is the classic proxy and
  *    is what lets the matcher ignore boilerplate in long textual records;
  *  - digit-token agreement — attention aligning model numbers / years /
  *    editions between the two records (the paper's §2.2.1 "book edition"
  *    argument): sharing one is strong evidence for, both having only
  *    disjoint ones strong evidence against.
  *
  * These are fixed (not trained); the trainable part of the paired
  * representation is the embedding path (|u−v|, u⊙v) in [[Matcher]].
  */
object PairFeatures {
  val nScalar = 7

  /** Build IDF weights log(1 + N/df) from a corpus of records' token sets. */
  def idfFrom(tokenSets: Iterable[Set[String]]): Map[String, Double] = {
    val df = scala.collection.mutable.HashMap.empty[String, Int]
    var n = 0
    tokenSets.foreach { ts => n += 1; ts.foreach(t => df(t) = df.getOrElse(t, 0) + 1) }
    df.iterator.map { case (t, c) => t -> math.log(1.0 + n.toDouble / c) }.toMap
  }
}

/** Interns character trigrams to dense ids. Profiles compared with each
  * other must come from one dictionary, so that equal trigrams have equal
  * ids. Not thread-safe: build profiles on one thread, compare them on many.
  */
final class TrigramDict {
  private val gramIds = mutable.HashMap.empty[String, Int]
  private val tokenGrams = mutable.HashMap.empty[String, Array[Int]]

  /** Sorted distinct trigram ids of one token. */
  def grams(token: String): Array[Int] =
    tokenGrams.getOrElseUpdate(token,
      Tokenizer.trigrams(token).map(g => gramIds.getOrElseUpdate(g, gramIds.size)).distinct.sorted)
}

/** Everything [[PairFeaturizer]] needs of one record, computed once per
  * record instead of once per pair. Token-level arrays follow the iteration
  * order of `toks`, which keeps floating-point sums in their original order.
  */
final class PairProfile(
    val toks: Set[String],
    val tokArr: Array[String],
    val weights: Array[Double],      // IDF weight of each token
    val tokGrams: Array[Array[Int]], // sorted distinct trigram ids of each token
    val grams: Array[Int],           // sorted distinct trigram ids of the record
    val digit: Array[Int],           // indices of the tokens that contain a digit
)

final class PairFeaturizer(idf: Map[String, Double]) extends Serializable {
  private val defaultIdf: Double =
    if (idf.isEmpty) 1.0 else idf.values.max // unseen tokens are maximally rare

  private def w(t: String): Double = idf.getOrElse(t, defaultIdf)

  def profile(attrs: Seq[String], dict: TrigramDict): PairProfile = {
    val toks = Tokenizer.recordTokens(attrs).toSet
    val tokArr = toks.toArray
    val tokGrams = tokArr.map(dict.grams)
    new PairProfile(toks, tokArr, tokArr.map(w), tokGrams, tokGrams.flatten.distinct.sorted,
                    tokArr.indices.filter(i => tokArr(i).exists(_.isDigit)).toArray)
  }

  def scalars(rAttrs: Seq[String], sAttrs: Seq[String]): Array[Double] = {
    val dict = new TrigramDict
    scalars(profile(rAttrs, dict), profile(sAttrs, dict))
  }

  /** The features of a pair from the profiles of its two records. Every
    * Jaccard is a ratio of integer counts, so sorted-id intersections give
    * the same doubles as the string sets they replace.
    */
  def scalars(r: PairProfile, s: PairProfile): Array[Double] = {
    val inter = r.toks.intersect(s.toks)
    val nInter = inter.size.toDouble
    val nR = r.tokArr.length; val nS = s.tokArr.length
    val tokJac = if (nR == 0 && nS == 0) 0.0 else nInter / (nR + nS - nInter)
    val tokOverlap = if (nR == 0 || nS == 0) 0.0 else nInter / math.min(nR, nS)
    val gramJac = if (r.grams.isEmpty && s.grams.isEmpty) 0.0 else PairFeaturizer.jaccard(r.grams, s.grams)
    // union weights are positive, so an empty intersection gives exactly 0
    val idfJac =
      if (inter.isEmpty) 0.0
      else inter.iterator.map(w).sum / r.toks.union(s.toks).iterator.map(w).sum
    val noDigits = r.digit.isEmpty || s.digit.isEmpty
    val digitAgree =
      if (noDigits) 0.5                                                 // no evidence
      else if (r.digit.exists(i => s.toks.contains(r.tokArr(i)))) 1.0   // aligned ids
      else 0.0                                                          // conflicting ids
    // continuous model-number alignment: exact id 1.0, typo'd id ~0.7,
    // a *different* id ~0.1 — the "attention on the edition/model token"
    val digitSim =
      if (noDigits) 0.5
      else {
        var best = 0.0
        r.digit.foreach(i => s.digit.foreach(j =>
          best = math.max(best, PairFeaturizer.jaccard(r.tokGrams(i), s.tokGrams(j)))))
        best
      }
    Array(tokJac, tokOverlap, gramJac, idfJac, digitAgree, digitSim, alignScore(r, s))
  }

  /** IDF-weighted greedy token alignment, averaged over both directions: for
    * each token, its best trigram-Jaccard partner in the other record —
    * typos keep high alignment, replaced tokens do not. The proxy for soft
    * cross-attention over token pairs. One |r|×|s| Jaccard matrix serves
    * both directions: row maxima align r's tokens, column maxima s's.
    */
  private def alignScore(r: PairProfile, s: PairProfile): Double = {
    val nR = r.tokArr.length; val nS = s.tokArr.length
    if (nR == 0 || nS == 0) return 0.0
    val rBest = new Array[Double](nR)
    val sBest = new Array[Double](nS)
    var i = 0
    while (i < nR) {
      var j = 0
      while (j < nS) {
        val jac = PairFeaturizer.jaccard(r.tokGrams(i), s.tokGrams(j))
        if (jac > rBest(i)) rBest(i) = jac
        if (jac > sBest(j)) sBest(j) = jac
        j += 1
      }
      i += 1
    }
    (weightedMean(r.weights, rBest) + weightedMean(s.weights, sBest)) / 2.0
  }

  private def weightedMean(wt: Array[Double], x: Array[Double]): Double = {
    var num = 0.0; var den = 0.0
    var i = 0
    while (i < wt.length) { num += wt(i) * x(i); den += wt(i); i += 1 }
    num / den
  }
}

object PairFeaturizer {
  /** Jaccard of two sorted distinct id arrays, at least one non-empty. */
  def jaccard(a: Array[Int], b: Array[Int]): Double = {
    var i = 0; var j = 0; var n = 0
    while (i < a.length && j < b.length) {
      val x = a(i); val y = b(j)
      if (x == y) { n += 1; i += 1; j += 1 }
      else if (x < y) i += 1
      else j += 1
    }
    val inter = n.toDouble
    inter / (a.length + b.length - inter)
  }
}
