package repro.index

import org.scalatest.funsuite.AnyFunSuite
import repro.ml.Vec
import repro.util.Rnd

class NnIndexSpec extends AnyFunSuite {

  private def randomPoints(n: Int, d: Int, seed: Long): Array[Array[Double]] = {
    val g = new Rnd.Gen(seed)
    Array.fill(n)(Array.fill(d)(g.nextGaussian()))
  }

  private def bruteTopK(vecs: Array[Array[Double]], q: Array[Double], k: Int): Seq[(Int, Double)] =
    vecs.indices.map(i => (i, Vec.distSq(q, vecs(i))))
      .sortBy { case (id, dd) => (dd, id) }.take(k)

  test("ExactIndex matches brute force on random data") {
    val vecs = randomPoints(200, 8, 1)
    val idx = new ExactIndex(Array.tabulate(200)(identity), vecs)
    val g = new Rnd.Gen(2)
    (1 to 20).foreach { _ =>
      val q = Array.fill(8)(g.nextGaussian())
      val got = idx.search(q, 5).toSeq
      val exp = bruteTopK(vecs, q, 5)
      assert(got.map(_._1) == exp.map(_._1))
      got.zip(exp).foreach { case ((_, a), (_, b)) => assert(math.abs(a - b) < 1e-9) }
    }
  }

  test("ExactIndex distances ascend") {
    val vecs = randomPoints(50, 4, 3)
    val idx = new ExactIndex(Array.tabulate(50)(identity), vecs)
    val res = idx.search(Array.fill(4)(0.0), 10)
    assert(res.map(_._2).toSeq == res.map(_._2).sorted.toSeq)
  }

  test("ExactIndex k larger than size returns all") {
    val vecs = randomPoints(5, 3, 4)
    val idx = new ExactIndex(Array.tabulate(5)(identity), vecs)
    assert(idx.search(Array.fill(3)(0.0), 50).length == 5)
  }

  test("ExactIndex preserves custom ids") {
    val vecs = Array(Array(0.0), Array(10.0))
    val idx = new ExactIndex(Array(7, 42), vecs)
    assert(idx.search(Array(9.0), 1).head._1 == 42)
  }

  test("ExactIndex ties break by insertion order") {
    val vecs = Array(Array(1.0), Array(1.0), Array(5.0))
    val idx = new ExactIndex(Array(0, 1, 2), vecs)
    assert(idx.search(Array(0.0), 2).map(_._1).toSeq == Seq(0, 1))
  }

  test("ExactIndex rejects mismatched ids") {
    intercept[IllegalArgumentException](new ExactIndex(Array(1), Array.empty))
  }

  test("exact query point returns distance 0 first") {
    val vecs = randomPoints(30, 6, 5)
    val idx = new ExactIndex(Array.tabulate(30)(identity), vecs)
    val res = idx.search(vecs(17), 1)
    assert(res.head._1 == 17 && res.head._2 == 0.0)
  }

  test("indexes serialise for broadcast") {
    val vecs = randomPoints(20, 4, 11)
    val idx = new ExactIndex(Array.tabulate(20)(identity), vecs)
    val bos = new java.io.ByteArrayOutputStream()
    new java.io.ObjectOutputStream(bos).writeObject(idx)
    val back = new java.io.ObjectInputStream(
      new java.io.ByteArrayInputStream(bos.toByteArray)).readObject().asInstanceOf[ExactIndex]
    val q = Array.fill(4)(0.5)
    assert(back.search(q, 3).toSeq == idx.search(q, 3).toSeq)
  }

  test("TopK accumulator handles k=1") {
    val vecs = randomPoints(10, 3, 12)
    val idx = new ExactIndex(Array.tabulate(10)(identity), vecs)
    val res = idx.search(Array.fill(3)(0.0), 1)
    assert(res.length == 1)
    assert(res.head._2 == bruteTopK(vecs, Array.fill(3)(0.0), 1).head._2)
  }
}
