package repro.core

import java.nio.ByteBuffer
import java.security.MessageDigest
import org.scalatest.funsuite.AnyFunSuite
import repro.util.Rnd

/** Pins `Committee.train` to golden digests: every member's trained `u` and
  * the raw bits of the returned loss, for each objective × negative mode.
  * The digests were recorded with the sequential, one-member-after-another
  * trainer, so any change to the sampling schedule, to a member's update
  * sequence or to the loss summation order shows up here.
  */
class CommitteeRegressionSpec extends AnyFunSuite {
  private val d = 6

  private def world(): (IndexedSeq[(Array[Double], Array[Double])], IndexedSeq[Array[Double]],
                        IndexedSeq[Array[Double]], IndexedSeq[(Array[Double], Array[Double])]) = {
    val g = new Rnd.Gen(80)
    def vec(): Array[Double] = Array.fill(d)(g.nextGaussian())
    // 20 positives: one full batch of 16 and a partial batch of 4 per epoch
    val pos = IndexedSeq.fill(20) {
      val e = vec(); val dup = e.map(_ + 0.5 * g.nextGaussian()); (e, dup)
    }
    val rPool = IndexedSeq.fill(40)(vec())
    val sPool = IndexedSeq.fill(40)(vec())
    val negs = IndexedSeq.fill(10)((vec(), vec()))
    (pos, rPool, sPool, negs)
  }

  private def digest(u: Array[Double]): String = {
    val buf = ByteBuffer.allocate(8 * u.length)
    u.foreach(x => buf.putLong(java.lang.Double.doubleToRawLongBits(x)))
    MessageDigest.getInstance("SHA-256").digest(buf.array()).take(8).map(b => f"$b%02x").mkString
  }

  /** Trains a fresh committee; returns (member digests, raw loss bits). */
  private def trained(n: Int, obj: Objective, neg: NegMode, epochs: Int = 4): (Seq[String], Long) = {
    val (pos, rPool, sPool, negs) = world()
    val com = Committee.init(n, d, 0.7, seed = 81)
    val loss = Committee.train(com, Committee.TrainConfig(objective = obj, negMode = neg, epochs = epochs),
                               pos, rPool, sPool, negs, new Rnd.Gen(82))
    (com.members.map(m => digest(m.u)), java.lang.Double.doubleToRawLongBits(loss))
  }

  private val golden: Map[(Objective, NegMode), (Seq[String], Long)] = Map(
    ((Contrastive, RandomNegs), (Seq("5a97ca8cd136d043", "9d1a7c1edcd67471", "444dbe9b9b2f1522"), 4607420020873554412L)),
    ((Contrastive, LabeledNegs), (Seq("e51b8b722f1d0b4d", "fb4579a1f231a423", "34bff74166f2a8d3"), 4606990133134684651L)),
    ((Triplet, RandomNegs), (Seq("b7b7b764d83266f9", "ec58c437d2fd7c50", "b513a9fbf195e7aa"), 4597973195064124732L)),
    ((Triplet, LabeledNegs), (Seq("5a8b22d9fa2cd138", "f85d645e67b9ece2", "8bdfc28acae5c8a0"), 4596571556972342893L)),
    ((Classification, RandomNegs), (Seq("6a6afa44bb5792b6", "3ede2909c2df2796", "3d689da44e09ed1a"), 4603811444627576847L)),
    ((Classification, LabeledNegs), (Seq("dafd2fe5e741b9c9", "023a7454e05e22cf", "98056455e91a23b2"), 4603926732325566545L)),
  )

  for (((obj, neg), expected) <- golden.toSeq.sortBy(_._1.toString))
    test(s"$obj / $neg at N=3 matches the golden members and loss bits") {
      assert(trained(3, obj, neg) == expected)
    }

  test("a single-member committee matches its golden digest") {
    assert(trained(1, Contrastive, RandomNegs) == (Seq("b2f0eb1467d03284"), 4607584172506497055L))
  }

  test("zero epochs leave the members untouched and return loss 0") {
    val untouched = Committee.init(3, d, 0.7, seed = 81).members.map(m => digest(m.u))
    for (obj <- Seq(Contrastive, Triplet, Classification); neg <- Seq(RandomNegs, LabeledNegs))
      assert(trained(3, obj, neg, epochs = 0) == (untouched, 0L))
  }

  test("training the same committee from several threads at once gives identical members") {
    val expected = trained(3, Contrastive, RandomNegs)
    val pool = java.util.concurrent.Executors.newFixedThreadPool(4)
    try {
      val job = new java.util.concurrent.Callable[(Seq[String], Long)] {
        def call(): (Seq[String], Long) = trained(3, Contrastive, RandomNegs)
      }
      val futures = (1 to 6).map(_ => pool.submit(job))
      futures.foreach(f => assert(f.get() == expected))
    } finally pool.shutdown()
  }
}
