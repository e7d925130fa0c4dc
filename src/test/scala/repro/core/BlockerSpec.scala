package repro.core

import repro.SparkSpec
import repro.data.ERDataGen
import repro.index.EmbView
import repro.rules.RulesBlocker
import repro.text.HashEmbedding
import repro.util.{OnPool, Rnd}

class BlockerSpec extends SparkSpec {
  private lazy val ds = ERDataGen.amazonGoogle(scale = 0.08)
  private lazy val embedder = Dial.embedderFor(ds, 32)

  test("PairFeatures scalars are bounded similarity values") {
    val s = new PairFeaturizer(Map.empty).scalars(Seq("a b c"), Seq("a b d"))
    assert(s.length == PairFeatures.nScalar)
    assert(s.forall(v => v >= 0.0 && v <= 1.0))
    assert(s(0) == 0.5) // token jaccard {a,b,c} vs {a,b,d}
  }

  test("Embedder caches base embeddings by id") {
    assert(embedder.rBase.length == ds.r.size)
    assert(embedder.sBase.length == ds.s.size)
    assert(embedder.rBase(3).toSeq == embedder.emb.recordVec(ds.r(3).attrs).toSeq)
  }

  test("Embedder adapted embedding applies the diagonal scale") {
    val g = Array.tabulate(32)(i => 1.0 + i * 0.01)
    val a = embedder.adaptedR(0, g)
    a.indices.foreach(i => assert(a(i) == g(i) * embedder.rBase(0)(i)))
  }

  test("embedderFor memoizes per dataset and dimension") {
    assert(Dial.embedderFor(ds, 32) eq embedder)
    assert(!(Dial.embedderFor(ds, 16) eq embedder))
  }

  test("embedderFor and rulesFor key by the dataset, not its shape") {
    val a = ERDataGen.walmartAmazon(seed = 1, scale = 0.05)
    val b = ERDataGen.walmartAmazon(seed = 2, scale = 0.05)
    assert(a.name == b.name && a.r.size == b.r.size && a.s.size == b.s.size)
    def same(x: Embedder, y: Embedder): Boolean =
      x.rBase.corresponds(y.rBase)(java.util.Arrays.equals) &&
      x.sBase.corresponds(y.sBase)(java.util.Arrays.equals)
    val (ea, eb) = (Dial.embedderFor(a, 16), Dial.embedderFor(b, 16))
    assert(same(ea, new Embedder(new HashEmbedding(16, 42L, a.germanToEnglish), a)))
    assert(same(eb, new Embedder(new HashEmbedding(16, 42L, b.germanToEnglish), b)))
    assert(!same(ea, eb))
    assert(Dial.rulesFor(spark, a) == RulesBlocker.candidates(spark, a))
    assert(Dial.rulesFor(spark, b) == RulesBlocker.candidates(spark, b))
  }

  test("buildIndexes builds one index per view with all R vectors") {
    val views = IndexedSeq(new PlainView, new PlainView)
    val idxs = Blocker.buildIndexes(embedder.rBase, views)
    assert(idxs.length == 2)
    assert(idxs.forall(_.size == ds.r.size))
  }

  test("retrieveCand respects candSize and sorts by distance") {
    val views = IndexedSeq[repro.index.EmbView](new PlainView)
    val idxs = Blocker.buildIndexes(embedder.rBase, views)
    val cand = Blocker.retrieveCand(spark, ds, ds.sDF(spark), embedder.emb,
                                    views, idxs, k = 3, candSize = 50)
    assert(cand.length == 50)
    assert(cand.map(_.dist).sliding(2).forall(w => w.length < 2 || w(0) <= w(1)))
    assert(cand.map(c => (c.rId, c.sId)).distinct.length == 50)
  }

  test("retrieved candidates contain duplicates at decent recall even untrained") {
    val views = IndexedSeq[repro.index.EmbView](new PlainView)
    val idxs = Blocker.buildIndexes(embedder.rBase, views)
    val cand = Blocker.retrieveCand(spark, ds, ds.sDF(spark), embedder.emb,
                                    views, idxs, k = 3, candSize = 3 * ds.s.size)
    val recall = Metrics.candRecall(cand.map(c => (c.rId, c.sId)), ds.dups)
    assert(recall > 30.0, s"pretrained recall $recall")
  }

  test("two views give union candidates at least as rich as one") {
    val member = Committee.init(1, 32, 0.5, seed = 5).members.head
    val g = Array.fill(32)(1.0)
    val one = IndexedSeq[repro.index.EmbView](new PlainView)
    val two = IndexedSeq[repro.index.EmbView](new PlainView, new MemberView(g, member))
    val candOne = Blocker.retrieveCand(spark, ds, ds.sDF(spark), embedder.emb,
      one, Blocker.buildIndexes(embedder.rBase, one), k = 2, candSize = 100000)
    val candTwo = Blocker.retrieveCand(spark, ds, ds.sDF(spark), embedder.emb,
      two, Blocker.buildIndexes(embedder.rBase, two), k = 2, candSize = 100000)
    assert(candTwo.size >= candOne.size)
    val oneSet = candOne.map(c => (c.rId, c.sId)).toSet
    val twoSet = candTwo.map(c => (c.rId, c.sId)).toSet
    assert(oneSet.subsetOf(twoSet))
  }

  /** Committees of `n` views of each kind: identical plain views, distinct
    * diagonal scales, and the members of an initialised committee.
    */
  private def committees(n: Int): Seq[(String, IndexedSeq[EmbView])] = {
    val rng = new Rnd.Gen(90 + n)
    def scale() = Array.fill(32)(0.5 + rng.nextDouble())
    Seq(
      s"PlainView x $n" -> IndexedSeq.fill(n)(new PlainView),
      s"ScaleView x $n" -> IndexedSeq.fill(n)(new ScaleView(scale())),
      s"MemberView x $n" -> Committee.init(n, 32, 0.75, seed = 95 + n).members.map(m => new MemberView(scale(), m)))
  }

  private def bits(c: IndexedSeq[CandPair]) =
    c.map(x => (x.rId, x.sId, java.lang.Double.doubleToRawLongBits(x.dist)))

  test("probe equals retrieveCand element for element, distance bits included") {
    val sDf = ds.sDF(spark).cache()
    try {
      for (n <- Seq(1, 3, 5); (name, views) <- committees(n); k <- Seq(1, 3, ds.r.size + 5)) {
        val idxs = Blocker.buildIndexes(embedder.rBase, views)
        val hits = n * ds.s.size * math.min(k, ds.r.size)
        for (candSize <- Seq(0, 1, 50, hits + 1)) {
          val probed = Blocker.probe(embedder.sBase, views, idxs, k, candSize)
          val viaSpark = Blocker.retrieveCand(spark, ds, sDf, embedder.emb, views, idxs, k, candSize)
          val what = s"$name, k = $k, candSize = $candSize"
          assert(bits(probed) == bits(viaSpark), what)
          assert(probed.length <= candSize, what)
          assert(probed.map(c => (c.rId, c.sId)).distinct.length == probed.length, what)
        }
      }
    } finally sDf.unpersist()
  }

  test("probe is identical at any parallelism") {
    committees(3).foreach { case (name, views) =>
      val idxs = Blocker.buildIndexes(embedder.rBase, views)
      def cand() = bits(Blocker.probe(embedder.sBase, views, idxs, k = 3, candSize = 2 * ds.s.size))
      assert(OnPool(1)(cand()) == OnPool(4)(cand()), name)
    }
  }
}
