"""Frozen seed-era payloads — rejected, while their reconstructions still hold.

The payload constants below were generated by the *seed* implementations
(single-stream DEFLATE lossless payloads, block-codec v1 SZ frames, and the
``BytesIO``-based checkpoint serializer) before the sharded v2 stage
existed; the ZFP v1 blobs by the last commit that still had a v1 ZFP writer
(``RBCF`` frames at DEFLATE level 6).  They are checked in as base64 so the
contract is pinned against real old bytes, not a reconstruction of the old
encoders.

No reader for those formats remains — nothing persists a blob across a
``CACHE_VERSION`` bump — so the contract is now:

* every such blob is refused with ``ValueError("unsupported payload format
  version N")`` and never returns an array;
* the *reconstructions* the old code produced (raw bytes for SZ, SHA-256
  for ZFP) are what today's writer and reader still produce for the same
  input: the quantization codes never changed, only their container;
* the seed-era ``RPCK0001`` checkpoint container still deserializes.

Regenerating these constants is never correct.
"""

import base64
import hashlib

import numpy as np
import pytest

from repro.checkpoint.serialization import deserialize_checkpoint
from repro.compression.lossless import LzmaCompressor, ZlibCompressor
from repro.compression.base import CompressedBlob
from repro.compression.sz import SZCompressor
from repro.compression.errorbounds import ErrorBound
from repro.compression.sharded import SHARDED_FORMAT_VERSION
from repro.compression.zfp import ZFPCompressor

_SMOOTH_B64 = (
    "AAAAAAAAAAAnZtD5oL/4PxLDvSN9ffk/+CNPQCw5+j/PjI0ISPL6P5SqWmJsqPs/D9AqlTdb"
    "/D/dTQd9Sgr9P85fv7tItf0/HR8v6Nhb/j+KKoW7pP3+P58BcTxZmv8/aLMSdNMYAEDuvY3s"
    "oGEAQARawvVwpwBAwpOtbyHqAEDnpAA8kikBQKDAsUylZQFAls9HsT6eAUC83tuiRNMBQJHH"
    "y46fBAJACV4aIDoyAkBpNnpHAVwCQOHbAELkgQJA3haBntSjAkDGp4tBxsECQEifFmiv2wJA"
    "rEDMqIjxAkCxGwP0TAMDQILKYZL5EANAeXwxIo4aA0B+L2OTDCADQIEvTCJ5IQNALiUfUdoe"
    "A0CIqifgOBgDQP8Ez8SfDQNAkUhxHxz/AkAwxgowvewCQNRAxkmU1gJA3vd0xbS8AkCNIvry"
    "M58CQAD/swkpfgJAGhftF61ZAkDh1mDx2jECQMoB3xzPBgJA+P4ZwafYAUCkV6yQhKcBQD0e"
    "YrWGcwFAWkjTutA8AUBNUVx4hgMBQI2+gvrMxwBAnlrTa8qJAEBELkj9pUkAQIVqRM6HBwBA"
    "KDFpqDGH/z/G/cKDBfz+P5N4CN3fbf4/kkdUeRbd/T/8yO0BAEr9P6wEp9HztPw/sSkxwkke"
    "/D/4U4T5WYb7P58Xd7d87fo/EAGiIwpU+j+S26obWrr5PyQjEwLEIPk/H4ukjZ6H+D9E+ZWZ"
    "P+/3Pwe9gvb7V/c/xyVNPCfC9j8s6ASdEy72P/kD6bgRnPU/yBCcc3AM9T9zAaHKfH/0P5GM"
    "Na2B9fM/jXye1cdu8z8INPmjlevyP4C0pPoubPI/n21THNXw8T9LDNaLxnnxP9Rpru0+B/E/"
    "bZ5463aZ8D/0FjcZpDDwPwPLGrnxme8/2q7oq0jd7j8NVeGXpCvuP6EOqTBWhe0/SF8lL6fq"
    "7D/oMVI02lvsP5DgTrAq2es/sJipzcxi6z8xMu1g7fjqP9Ifc9yxm+o/IbJ4SDhL6j9yfnQ/"
    "lwfqP0BZpu7d0Ok/DvnZGhSn6T8AAAAAAAAAAC8JzyxJeuk/fZOj9jJ36T+NgMQr4oDpP0lr"
    "wl06l+k/XRKXJxi66T80iC9OUenpP6EMmuS0JOo/qI28cwts6j+a/XYlF7/qP/nwEvOTHes/"
    "L0/g1jeH6z8MT90As/vrP957Rg6weuw/UxrqQ9QD7T/Q9RjLv5btP8VoDfENM+4/BFSgaFXY"
    "7j8TtCKOKIbvP3jLmNYKHvA/RLEspNN88D+RUS4xMt/wP0j9eGToRPE/EiJmsLat8T/Wy185"
    "XBnyP/3C6vyWh/I/BFoR+SP48j9c7xdUv2rzP1soZIQk3/M/efZ/eA5V9D+jkSG/N8z0P4+4"
    "Ia9aRPU/5LpJjzG99T87EOO9djb2PyGK8tfkr/Y/jIYJ4DYp9z8A65dkKKL3P8weqqV1Gvg/"
    "ubP+uduR+D9g8F+zGAj5P1T9LcLrfPk/Sg4HWBXw+T+9gXtJV2H6P+ebvO500Po/QDU1QzM9"
    "+z+8b/wDWaf7PwZJE82uDvw/IapeNf9y/D+VZVDpFtT8P7RsMsTEMf0/3mAI6NmL/T/Jh/zT"
    "KeL9P2wQTnmKNP4/pYC3TtSC/j/2EUVi4sz+P620k2mSEv8/j2Ry0MRT/z90b+DFXJD/P/pE"
    "ZEdAyP8/8123Klj7/z8LYeISyBQAQNJUfGprKQBAsFfw3447AEAafg6uLEsAQHrkUYdAWABA"
    "wsGslcdiAEAOaYB5wGoAQNBMw0crcABAHIlXhwlzAECA65QtXnMAQDfdCZotcQBALQB3kX1s"
    "AEAluAk4VWUAQOI+2gq9WwBAlESy2L5PAECLfCG6ZUEAQGbR5Qi+MABA8VKtVtUdAEBUQzhj"
    "uggAQPTvwyP64v8/eBovvVyw/z8uZIekwHn/Pyslbu1LP/8/70gqlCYB/z9mo5pjer/+P4pe"
    "Udpyev4/JzrpDj0y/j9UqaWTB+f9P6Agb1kCmf0/CSY9kl5I/T+q5v+STvX8P8s+G7UFoPw/"
    "rj+FN7hI/D/UUZofm+/7P2scuRnklPs/q1m4Wck4+z+YtEh7gdv6PwAAAAAAAAAAWrRwG0Ye"
    "+j+NYmy8wL75P4/DF0XqXvk/IJhMgPn++D/Wck3lJJ/4P4chi3miP/g/sc/gsqfg9z8Y5FZa"
    "aYL3PyYyfG8bJfc/zqZkDPHI9j8EIFxKHG72P/6cWyfOFPY/gm5ObDa99T9BgDSUg2f1Pyw/"
    "LrTiE/U/mgZ+ZH/C9D9pXYqqg3P0P6am6+MXJ/Q/Pz+PsmLd8z/HUvnpiJbzP9j+rX2tUvM/"
    "JabJcPER8z8ims/Gc9TyP0qGtXVRmvI/6kgxWaVj8j/eJE4niDDyP6p1TWYQAfI/LkzWY1LV"
    "8T+0lnYtYK3xP22zd4pJifE/24gH9xtp8T9Cfbag4kzxP3vkSWSmNPE/1LvhzG0g8T+wzW8U"
    "PRDxPwqbfSUWBPE/gLA9nvj78D/ZVuTU4ffwP0DdQt3M9/A/UQ2gj7L78D94r8eQiQPxPyhh"
    "SltGD/E/Ol7mSdse8T8qRBGjODLxP7JAmqVMSfE/2I1blgNk8T+klPHOR4LxP+KMbc0BpPE/"
    "LPT4RBjJ8T+vwV4vcPHxP7bNbt/sHPI/jn0vFHBL8j8OZdEM2nzyPz43WJ0JsfI/ChDsQ9zn"
    "8j/A2MU+LiHzPzhJqaLaXPM/uM/ecbua8z+qeZ+zqdrzPyzQ5It9HPQ/tXuOUw5g9D85a8+w"
    "MqX0P4As1K/A6/Q/hByU240z9T9XGL9Wb3z1P89gufQ5xvU/m3SXUsIQ9j9fvgvw3Fv2P58V"
    "OEhep/Y/RDpV6hrz9j+doyKS5z73P1IzEUCZivc/NJwbUQXW9z8nkz+WASH4Pzsti2tka/g/"
    "AyKyzgS1+D8SAx91uv34P4nZdOFdRfk/HQF2eMiL+T8Tg0WV1ND5P+6k+JxdFPo/jNRuEUBW"
    "+j/MlWajWZb6P3qVxkOJ1Po/LogSNK8Q+z+9AgQWrUr7P+cEQPplgvs/DXwibr63+z+WlJmI"
    "nOr7P4JDC/bnGvw/uAZAA4pI/D+icU6nbXP8P+Wzg4x/m/w/YOFFGK7A/D/qXO1x6eL8P8Rh"
    "k4gjAv0/AAAAAAAAAADajISrZDf9P3LhWKJYTf0/lNuALyVg/T8QCzZbxW/9P26MQAI2fP0/"
    "imVz1HWF/T+LXCNShYv9P32Om8hmjv0/HpeTTR6O/T9qpKu5sYr9PzxW86EohP0/PMyAUIx6"
    "/T9Wwh285239P9UVEX9HXv0/dIILzblL/T+Z1z5oTjb9P2xRp5UWHv0/giiPECUD/T/vy1T9"
    "jeX8P56VfNtmxfw/Nh8Xd8ai/D8YroXZxH38P9p3pjl7Vvw/B8Vy6wMt/D9fNhlPegH8Pxqp"
    "nr/60/s/PGgQgaKk+z+4hFKuj3P7PyBTlSbhQPs/3yt9erYM+z9OowfZL9f6P0aAOfxtoPo/"
    "yMKgFZJo+j8fEba6vS/6P37fKNES9vk/MJ4he7O7+T+sK4UDwoD5P7iyRMpgRfk/GQLFMLIJ"
    "+T/RSWiG2M34P/gCRfX1kfg/bpoUbyxW+D/YQ2SanRr4P0oiEsBq3/c/zLYgubSk9z+/Qerc"
    "m2r3P+B8ve8/Mfc/DsfsEcD49j+xiVivOsH2P31KfW/NivY/KoINJpVV9j9/8x7ErSH2P4vc"
    "8kky7/U/5/ZfuTy+9T831OQI5o71P824aBdGYfU/baiwoHM19T+Q6Y0yhAv1P4DQyiKM4/Q/"
    "mC/ahZ699D84VE0mzZn0PwkAFH0oePQ/bVaJqr9Y9D8nPFBwoDv0P40tASzXIPQ/uhWr0m4I"
    "9D+TNijtcPLzPwq4R5Xl3vM/XPvLc9PN8z9zVj2/P7/zP1ZkkDsus/M//aCeOqGp8z9lkm+d"
    "maLzP+BNUNYWnvM/yre26xac8z8qbe17lpzzP/XahMGQn/M/Hp2FmP+k8z982V+E26zzPzPn"
    "krYbt/M/lTMIFrbD8z/0+BtHn9LzP3gDTrTK4/M/IGuUlyr38z+O2UkEsAz0P7GlsPFKJPQ/"
    "Q8cDRuo99D9CYA7ie1n0P75bQq3sdvQ/hGZGoiiW9D/PUPPbGrf0P4K3uKKt2fQ/Gadgesr9"
    "9D9mxCkwWiP1P8dkL+lESvU/L+MWMXJy9T8AAAAAAAAAADJGgfYvxvU/xwUyE43x9T+pJtIb"
    "xh32P4ep7X/ASvY/XmpocWF49j8aYRf0jab2P57oV+0q1fY/xz2cMx0E9z9ZfeSdSTP3PxGD"
    "GxOVYvc/UStPmeSR9z97nLtkHcH3PzVmoeYk8Pc/6HDe2+Ae+D9L6UFbN034P+GIk+MOe/g/"
    "+dRGaU6o+D9GK9Nj3dT4P+OyqdqjAPk//ozCcYor+T+W57p1elX5P6Xefeddfvk/tmVyhx+m"
    "+T/Awyjgqsz5P1F9glDs8fk/Pt5PFdEV+j/0ql5SRzj6P+vZ9Ro+Wfo/GpG6eaV4+j91/vp3"
    "bpb6P38AXCSLsvo/LvLmmO7M+j9YTHUAjeX6P00veJtb/Po/DkcaxFAR+z9a3brxYyT7P1ZN"
    "wbuNNfs/jWzI28dE+z8p3SEvDVL7P1ycsbdZXfs/LX4inKpm+z9HpXQn/m37P2Nh58dTc/s/"
    "dTlADax2+z+6P3GmCHj7P+4koV5sd/s/+dSXGdt0+z9vupLPWXD7P7oWhIjuafs//yrBVqBh"
    "+z8WOSNRd1f7P72sn4x8S/s/lwJcFbo9+z9zRULnOi77P205G+YKHfs/q4gz1TYK+z8ffpFO"
    "zPX6P8IPwbnZ3/o/DSs8Qm7I+j+LZHXNma/6P+NUi/Bslfo/LxSr5fh5+j+EZiiBT136P5FK"
    "UiaDP/o/A7YKvKYg+j/WYCihzQD6P4+TqaAL4Pk/C/q+5XS++T+UhrXvHZz5P0B3xoUbefk/"
    "I5HUqoJV+T/zoh2RaDH5P8Na543iDPk/XHAuDQbo+D+jF1+F6ML4Pz6dHWufnfg/f/klJUB4"
    "+D8EDUkA4FL4Pz4djiOULfg/wQZ/hHEI+D/ld6XbjOP3P2VeP5n6vvc/JYkw2s6a9z9SUTdd"
    "HXf3P8ftaXj5U/c/nOABD3Yx9z+cuHqHpQ/3P7MnCcKZ7vY/3DRvD2TO9j9yEjIoFa/2P17i"
    "NSS9kPY/t3DDcmtz9j9/qfvSLlf2P+5JvEwVPPY/EAf5KSwi9j+5G4zwfwn2PwAAAAAAAAAA"
    "wvzaWgzc9T9EttsEWsf1P8EXyJsOtPU/GH0whTKi9T8SRrtHzZH1Pytlc4jlgvU/SmqbCIF1"
    "9T9dVgWkpGn1P1Q5709UX/U/eFBkGpNW9T8rESIqY0/1P+pBAL/FSfU/b/vaMrtF9T/eI/36"
    "QkP1PxuwCapbQvU/qrJh8gJD9T9J/ASpNUX1P1HR6sjvSPU/SPfPdixO9T+zIHcF5lT1P8iB"
    "WPoVXfU/gx+9ErVm9T/rM0JJu3H1P+LNwNsffvU/HqGVUdmL9T/Ny0SC3Zr1Pw=="
)


_ZLIB_PAYLOAD_B64 = (
    "eJw9l3lUTV3cx++QR6FUKEqzlKSU2YPvQTRQlESjIr1Cg0KDIilFhUZKKikpokkSaUD1UDLE"
    "oxJJpNJwu/fc4dx7671rve96zj/fdfbea+1z1v59P9/fptH+79HzeivIqeVD8XmNTni4AHyd"
    "HYThGgpt8QnSFuMUUoqc9h+9I8TMtwapq5xF6LaeGm41TYw3+2qfWDwUQ03D+Pdn5wlcNIh+"
    "kieeQDb92DrHjEkcKlc8/mEujRipSfiT40EjpJwaSP8CGtGQXOynNUgj+vNo65IW0YmcutLt"
    "+QfpRFqbeemGLDrx9GtXrtkHOpHY9PpSthSDkHFT0VxryiC8V4aa010YxPcu2qa+swziq9LZ"
    "rPZbDKKxIG5jYz2DsMhWOvSgi0HcI1ruxLIYRKkqk7OdySQiX3kkCeSZREiYifYlFSZx2vhA"
    "8gxNJnHWeLt2iBaTMNLVsO1UZxKxRXo9q+cyiUmpthfZskwi0eKYxvxJBrG0cdrSmj8Mop1o"
    "tEz5JNmXd/xlxVMGkaBNjS/LZhC0yXKZRacZhIrysHKxo+T7PrmzOk0YxCv6t/ltfzEI/sS8"
    "+oLPdCJvz70rUQV0Yr36/ofnA+mEk8WH6rfr6IS1rUvweSadSHgWSbU00Ygspw9HXl2gEWZG"
    "FuJ8SxoRfdjsTcxUGqFv4n3HJGYSjeKGc1NEE0gOlu7+5jOBJHP7EKVuMUTNw3SalRj3pAre"
    "sStEKF1k0mCpLgJ/V5TA8bwQ2cpBj8KGKcjTc3Wm2VNI6ipSdaoWYIHOLMYLTQE04vISsmL4"
    "MBOkpmOUh6k1kVzhHh6adK3X6TVwYfhb6sYsIy4EzIEqhUwSzfKZgf4zSATSb74KO8NBYvyK"
    "4rMkGwlhWR+bfNmQXi64lTo0joiKPMro6DiyfXbN/zjGwrYZn+IaQ1ho974/vGEqCz5ZwUMn"
    "08fAUVo1L2/pGJivVR6z0kfRef/3XYvuEcju/n41b/EIbsoVLnWIHobFPl3jgsE/+G1it7zT"
    "+Q+u9NiUGHQMoeRaYWvL/iGYmA67D/MH8V4j8Evp9UFolQVbrN42iIDTx3F16iAIx9sj3W8H"
    "ICfoUJldMID/twHNWKbN0DJ0AOHJt7imQQNIiHixuDdiAJZHGlzXXh2Aq+JVvbnVA1gea2xj"
    "OzCAmzMy+ioWDOJOwtPA6UcHkSE+qatcOwjBmCI7WW0Ixjt6Pq2KGcKMHd20cuEQvp7aKlcS"
    "+ge7VAY3tzOH8Zac+7o2bRgvD8myZJeNQMo+59DuzyOYVaF9Sf/8KIJfX/s0TX0MZqWGeR/C"
    "xpBoa2Ri+m0MFuJgz99mLChqe5VUFrPw6fW+NS7zxiFuGBSlxYxDyklBoMMfh8uosn3tYTac"
    "9T2jFnxjI4R7JlhuNwe3ErVqV7VwcLlK64GTGYm+asvLJjUk/pb/UXNyJRdaF8f/7XvARfx5"
    "mZ6Vi3igDV311M/loUW9KP+ECh+PyycedyXy4T62r3yutAD24iUNQ2ECWMlN3TtnTICas6cs"
    "93hQ6L/+dOT4WwrEihWbl60X4qmfiOlYIMRflrNa78uJoFXktmIyQITUgzsHlNpFqDhq+uKF"
    "iRhf3aV/d8SJ8U+M6MOiXjGOytuEXFw+gfyIRzbtkRPgKmzZ39sygeKKZO8kxUlc9gx4+2LX"
    "JI779bx0uTIJyszTnGieBNv1kcFe4SSme/QqNs+mEe/tww4fWUQjSvaMfbv0N41QOS1333Ab"
    "jQjts40h9kq4VH8vtWk/jZDzjgipO0wj3m5/br7Yn0bMv7AnRiaQRkQMpSxxk+iqbpmMJcdo"
    "xBJaUGL4URqhWyWzevdBGtG7oXNajTONSDEr+/xsB42IC9OqPriRRni9+yn9bCmNYNkVO3xU"
    "oxH2m1cfqJamEZzR5zpU7ySCVYxrXEomYeQZk1cXMonFur7D2zCJUQuDlIX0SXjdyjgQWivh"
    "q5ttZ0DoBPTWDsitN52AfWF+8tR+MXI0/RwZ6WLILFyf5GYhRtGvySQbUoTXG1QfTskR4T6i"
    "V1VZiNBum6FxfVSII/Mfz+tLEeKuY5XjP6uFuFZhcepsF/WfD5wq/FW3qlNI2H/0ad0zAS4/"
    "V94y6CaA5rXtEYIJPj4FWP9ckM1HjFZcSC74KG3rKSvo4WFun4OTdyQPC03D/FR1eXhz23MG"
    "q5kLKU0Xq/m+XExkOuu9mc1FpK/N0ZWSetsYsTzl3P+QMIRRRe8sEhl/nfY808CBt+vFonOB"
    "HNy+PfRDWY8D4HLZ/m42muwEA7FpbHyeKA4vtmND9/Y//iwFNrQz2hoD28dhdf7hCduMcQxa"
    "mDjmHxjH1wU2erFLx1F0wtpLnj4Oo+2fDth9ZKEi7eQSd4lvfMqDLlpeYKErdipP1ZuFTeGV"
    "Ob3bWTjVZ+l5e7mET0++t/hoslDS6jd7vTwL066H6ypJsRBRsj6LLxxDh0Nf+3feGIjuTd0t"
    "ErWVzblcJhkPftB05QKTBX0PK+etM1lY6/bLskudBQMzhVurTVkoIzLyt1uy8DnBOY3pyUJe"
    "CuuNeSQLvfE+rfQ8Fgw5fLO5/7DwoN7N2J/FQmWr77c/88dxKdx4tv+2ccgdfDejM2wcG1bt"
    "vSFTOo5p8n82f+kfR93nlxuMtNhYbVmY2+nCRlXb12NPMtgoCskuL+xkw/BtX1z4fA4enrq0"
    "S86dgzVH2kpM8zmIMGx/UDfEQdT8lK6EZST2zK118Asj0eb+mLOmkcT141ftGuS52Pds+tgX"
    "Zy6y56y2cCvgwmzt7kEVNhc3bmkn9W/gwW6ZApF+kYflmaq2Uz7xoJeMNLoWH38viTvieYQP"
    "pnbZG6mHkj6DqXGiWszHhY7j3123CKBGPxncHCfArHNbUtvfCjCSx890nU0hvt1XgXCg0JLq"
    "dcsxjUJoauPmC+0UjGIVlz+QF6KGIaVUbCVEvxRBHYwUQjZM2/fZIyHSUtJjMweFiNw8nduv"
    "IkLVXwTzoqT+c4/ZFPgEivCz/Fz8mesiuH/fMvd+nQiDLsPHBnpFeOGRHKvDEP/ng874qLue"
    "q8QI+L43d6+1GCldEca67mLIT1/p/NJPDN94grEyTIyLBwPbT0SLEeeiYxct4Vb4pevNXpfE"
    "UL+abK0u0cN5dx+XXhRjnQP7pn6URFsidsaHiuHQoPa030eMj3MUzpi7iXE8cnrr421ipP+7"
    "4ZDNSgn3bAtSldTFiNS/LK/LFGP0tb044acIWalhXV4vRVipoRzUmCvC3PvRHS/CRegMur3m"
    "lIMIU18GDDGXiLBv5bwdoXQRVAqzaqkPQqw7JH82N0+Iqii7+5cDhdDclbrwOyHEt8XhoZUz"
    "hLC5NbXD+F8KWyPWiHxyKDQ35MxJOkRBQ6GyusaYwulv+u8UuQIszdI6Vf5EgHuLo5kNEQJU"
    "lZm9cpec4zzGy6VlMgK8szx0/nMrH3zGFpKU5IRvxmw/Qwc+Pm/2zLghyQ8rbcW6w98keVKp"
    "+bgij4fajYNfrh/moSesZhQmPMg1/VGo43NRemHvg7X1XIRbhfu1XuTCIFJ2YepuLs6w1V8U"
    "a3ER92Xc0nSURD933+N1z0isau+T/nWJRGvVIeWtHiR87pTkBK4gcWUgwTRqOomIt6+0439w"
    "cM24MzqrhoPV9tYLW9M5kKHNDtcP5sDH4UJR7V4O9Nbt9M/5m4OEJXTDfzU5qJ5z972vNAfJ"
    "K/WH/cfZmFZlnvrzKxsuwteBH1rZCHRYX4taNhw8r/xtVM6GOCdr7c1CNg4m+d1Iz2Wjx3rn"
    "J6UsNl49qhxSymTDwGf4VJpEyc6o+ivZbKjfiL42mcdGWMe+qK57bCzrT6pUfcRG6jJppcrn"
    "bHD4qubZ79kIZtpUvPrBhuaRlKsGPDYudVhKlczgoDS/hGW1gIPNTcytg+s52OQu13vKkYNn"
    "zpuK/5yU+Npra65+GgdtO9ldKo84iHxUlVvcwcG8AvfQV2IOvF4sWuqkQ6LJ03jAzIqE8Q8l"
    "k4AA8j8fmG49yzWWcKBpiumsBBaJwoXvVRvVuIgpHD5TZ8WF2+FDxzyCuVDxUOYk3OYi6/ee"
    "YYOPXDStz1ymJsWDY3jfDctlPCicU52Vup8H28U70vsSeTiV+cRTrZ6HFV43fy0Y4+G3/9eu"
    "HnU+tg1sdF5lzcf32OQfcqf4ELRv9ba5w8fWxR8OdLfz8aOssPMWTYCJ+IZjFxcLkNZffSJ0"
    "twD5X8P7XU8LUHkwIEbjtgB1z/V7iloEsA2P3PmHJcCGrzvmvJtDgVPkZme+msJQB6mywZGC"
    "SmJ1SH4whRMTVJCvhDNnaC4L4soknBn/dW2khcLe7SdoCT8pWBsHX3cWUZAzV3mxU0EIp+5q"
    "1oEFQjhY1z9JWCFEwtHmriYzIRZ1axnL2gnhkln6yNFViCWntTOLvIQwzz+uN+EjxAGP/qZd"
    "Ev+dWEPI3jspRDWO3ZYOFmJkwU23o0FCyf9endd1XAi/6qQ2R3/JvFJU7Ii3EJMG9Q45HkIo"
    "rdGxDdoj4d+97PiwbUJcZbjMqZb0V4FbNvWvNRLCZ43qr2lqknyPXfZx5TQhNE4n2rSQFBpm"
    "1j/u+EZBdvG6Tb7NFOI8T7SmP6Dwwz5u7GgqBePZd3/yQyhJveif3eFKIdHKbuE5UGBWTnt6"
    "W5PCJ3f9m600CpeTC3Om9wgwnXr287ikP0g5/3BULVMAIqgxWjVEAJ3E9qJIyXmwc9USD5kI"
    "8NypP6F3hgAu/kayf/3m45byvujfDXxsuKF2JPsGH2cEurpEMB9Sspa0HjvJuNolnZQlfNT/"
    "dSbqmDQfP4Pyu+J/8HDQDenUMx50LyztfJMhyRvbVa5qQZL7ybB3sGAXD5k99JknJfzIrAqN"
    "yZ/JQ7meTEP6CBdflvvN9HzDRYCiqf4cSV/r1rtiQc0VLh75Pw84EijhSaHwvdEeLkYsn26f"
    "s44L+amCRYbaXDxWjR87I8P9zwcNok6nGV9ImFV2STk1kahXbr4uV0FibvjSaNNcEopbn5i3"
    "JpJYfDAw9mckCavD16XPniDh6jAlL8+bhP2a0R32+0gE7/RUSXaQrFPQNjiwg8TgRlrtS0sS"
    "fsJO0ydbSHzVEVObNpNQLZEpct5EoqjMY5whebcUSRWukMzbvhtsHrUgYcFrO2loQ6JcM2jK"
    "L3vJfezsXmqOK4lzGjWKD71IDC3bZPnkGIne1roujdMk1G+m2nbESfj42iyyO4PE/wJm+O9T"
)


_LZMA_PAYLOAD_B64 = (
    "/Td6WFoAAATm1rRGAgAhARAAAACocI6G4A//DVddAABqiCKl1JZ2TphjaT5B/+TdEngaPynM"
    "ZE7nXMq6y1fkv+71Qu0dung8n5WfQcQP06AlSpyLLRakDPGwJpXmzQvksVTgi5E/R0mG9Caj"
    "zBJPmwPQw799MQ74/9yDPbu1ACYAfTS/miVbP5aItI9ZhKNqUgMukkIwJ9hUWcGE5nYlDX44"
    "x63xWn4Tgaz6kx8Ec02i0mZwsqIvcFDzIZeXhIL7ItxxYu6HJomwV70vodQ910WJHcxFdDbO"
    "tPT1f1v2ECsBLivhofCbH45Fd173C2feFgJ92i80+4A4FLlzsIceVFzLuw7Q6h8eu2Ciqvw/"
    "QmVptAp3so0T/rWulcjZmIylhUPSmtQfK6ELDnTcI+/0iO3xBLmRL350SoT+u9WzrL0ui+wI"
    "xbTzfrhoIIytxGEACSk9qyf4nDyRqraDI9Ql8ezKXIHtXXUrkcTsDVSEYs3EO0y8C3+ptj2k"
    "QePqEvJ50iH2tvWT2pB97Tm7bEadVewBQ7rIiTC2UOQf/8AS4rXe/4NFT4IOsalDWlN3VQOg"
    "8g8JHzMxhYq729zi5UQc2jv8WfqVljndvYo82p/C7T86fr/HzaX2u7VyffJ9hiSU/87NMMji"
    "EeBcgoKfHsquQvmcnoy6rcDlW4YmRMeSYTSxxgUd4rirGixJKJPx3IQAR286YhJmGUK+WbD+"
    "Ru4tCVMIyv3s9LO+nXl+mX7GmuXb67kvllloRKaSHqqfhNNWPU7Kfi1EYjMYWX8QRc3b2MOh"
    "BeGt35XgUn8BH5CFKtwWBmZuZANhq7eSxLx1uKdhk9Bmu5bH9iJsSr3CgY5QRvJsAQxakGWO"
    "cwcz8zSRnSfEblHGPX40auxZi4hKR1SKHN2VtAYCVhbTmh8uMw7DLFSoYtSbm7zVP3zjGKPV"
    "J0fLeC6vcuNIF0TjtJZosdKaIFklEg4kYD0R9P6IPutL19qWgNZ1n6Rggsos/LZqzh0uCss+"
    "Omh6chu8BBiy2cMCXULG4yvUnmAK0Ab/+Zrok/x9mydrl2AWf4bqD/yU/1FwNmaSYrWxK15v"
    "N7fbULCTRKAUFHY6I+Lms1zRLFtzTizRrKYflurXaVDJJt0g55oHWStZUNUIoJno+i5ao2Nz"
    "J3r8DaPD9CiFg4AZWdQjSZRs117/rqd+UXU/dVM2RNy9MiZuQJuwIyFRSAp9B94McRloeFm6"
    "AtctCxdNCrlO8C5VUbSMSX87J4appTisWuq/UiI5j0L7oOlc0ePP64xF+IzWxktEq59ww4f4"
    "szLXu5ArNXpQQgwKH9pm8DEIADJ4tjvfAmjNESOYwEetsT1mVom0UYV1gY3Ydr5gj9ZLdQzz"
    "WreYTTc+eCrOLB9WbYohbQ1Fb79QmkUE5haPii0k1756p90PPy2GKu76Odi9vVbnNMUwgdzU"
    "aWkjBt+4fL6MAaVnTwhJgoyv8C9AGDwrSVXe8F4tuifQq3PSRQq4qVfYf87alEmBTmIo6IpF"
    "NkPYZmeErGtOx0BQjlOMRu/DdgmjkQczD7LQmV5zm7dQDqKojAdtHJdpB/jkOqOj4EuG1ZC5"
    "ZEOp5Ig1UTUCTbiIPV/Sf5MGcg8DbAVhfCrjSdXbES+DRg65ZqulmLN5bcXtw5jFozUfSDtj"
    "17ZnUf+xImhm5101MvsqTEsxEk7VR/kez3gvwL6gzfr/gYpQjiB5GkJ5npU+/lvKuAWWJODb"
    "ekW9DwaqZecxNdQ6/JXuuSGwaCk9f4CZG0fNtZUf5K0E86uPkMZnyq5Vo/X/wbTx++pwWpxR"
    "Q9pf7vsJwOppA5Ph7Hf7K5zWKxO2sS6fpETX9Vo4Vd7ZgxacQYt0g8s1jM84NyvCXCLMT6cM"
    "8Wcyo3ATFCXdJkHV4jG6gKy2ZT5QN0BaswAjh1SVpUjxYWBNBEdUnDqXJRa5o4DRz+5haE6R"
    "NNgQcC/qnIwp7FSIHA8eOdFJwMPtKe7QbZYNHEqEaFBjFOSdvhdcwbwCPMGlSMZ8osKs384J"
    "agIrNqLcRdYf48GqD6uePAARZoK5POFzZTypMesm8ofxxsupbvgcGeCMhUm12l7L/JRpMTLI"
    "eoPyQnAn6/oYUmQfD/z4vpnbAzR4PY9pIu+J21wMbhWXqK9kIICVRGT9zbb5GPFZFFl1miQ/"
    "J6+NcdL1jGj7/JE2LSfsJ23Dv5GW5UUEMotJAeejztrDQimwm9KiCq7izE1QL9zrV/8MAd2i"
    "Bb7QvpjhWn+wKmn3XdSKV8rJ/AYoLJqjwgp9uFhfPzoVfIJEFfJudRQgy23Cs2riaac8lT/M"
    "fhrxCQQzcweJLBzo2mx8ueo8lI2TKwPI+nBMvlgcSL7xJ1rEFJBpYF8pyiucr02L40+qvgCA"
    "oiMEdpSrtGuMmbTvbTTrXn4s88Nnl02ilLnp0gAlDH7OlFertgjYcfhzDhBtpA9DYkuy0Zqf"
    "GcVgeXdE6rBM4JiAI73zdpCWHWH91OVRjcT4Ru0L2S4Axw3XNwwgUqn9xpGheot+K1dUTYTO"
    "6CMNkwky1zZYttxoMdzdXxMaU9g5b8M8RA6ZC74qUWfyRRu1+lskOdhVp8CMWr78x24RUV5l"
    "g/9dLKRDNZBiEGBdhs9MQujv/4JdKl1S34VDMu+JfHeGZnXVa51qptuCYhEelT3NAj1GTlU/"
    "gzwVDrUzkJVeFioxvbiEZPJh+rDK2t6E9WZmmHwBmzgIIkBEW4Zf56r/iZ1hEP01zyk7+6pR"
    "FPP2d/l/J/Rck+va68xpB4zzP1mzr6wS9KNpVzK5vj7hAz6DHjhtmcwyyrOX+bqbH/8AHrDN"
    "LOeTuS8FtZOM8oby9D3PKXmrMiv1eYTtL/+v7Luq1Gmp7qe4UrCN2P7ynqO9X2rrEpf3t0/A"
    "lLggxAwp0lK2q1tWy+5UsozbKZkCXG7ZvLi0KsUG6BgS6NrWUh6IECTahmMvCjqYwS9FL2ud"
    "jyAwwO39cydOZu0AOYJxk4ZKWqlNDjEfZRogh8SQMWXUFcaR7f4yjEFHC2H+QqNdpS7JdgRL"
    "3GPRl/5FNBhsgV5on19LTipa1WdP16uZJKwJskepdvPxiTLVgtsqSnc6IqvtY4IiOkPIUsD6"
    "g2GZNKDpm+lK71oT0fbVtiNl8jHm4GBrCf6IZkfG6HsrMA28ulqHhJjLcmPX/iC7TCf65Rk4"
    "RyqWGyBdmrGyVxOE2uvEof+OlVCD+VgFecYyDNWa5ndofwtD2WoVE6qbSo8bsW2vm5QffLJw"
    "zhDW6lGpI/8hGLkxhwfx24ZR6gR7aML93VdAHRF5v+yT2v4BPOfPrXGxtdPEkI+XqlTAxhOC"
    "1T5dNnd3LDp5G016Ko3OrPMMOtFBn2aHsCuXKd2rXQbwOZRPpROS9MKUI0WeAcRwqbEknKHC"
    "HcvjuxDHpSpgY7sTbmZ4Hgrppo3dJt7Qq4sZD+cJ35xaw0SrnrcWVqqZQcmRxmvwDwHs+l02"
    "J4iFLXPgCZ2844f/cX5AZdeQ/TDR+y24RNEhFRy2lQFEUKYImmrEMbm4kuHW3SM5MjXqWfxz"
    "rBUxoSjD5UWUVJIXd5AkpCShbm46tn3DI+jNG9Pa1XvXHaTqUP3y97LB85d9FtP8cz+FLVPm"
    "FwLaAnRcKr/ELnhJv115EwtMH84LVHBECRq1srT4Wc2eOgipBEcW2oRx0whx7mNJrb87fTbW"
    "MeLyiVPIInnlhgVy0EkyLxKuQuPlqi6uSCfUSikJPeMPTskBDUd9j0qB8fC9M+mjI7+Dui3Y"
    "OT6M5MNZ6x5REiia2tFR3vYhi/Y3zIRVse0RR7bnGFRguqEqohTnBK126z4cE6Yvg5iKP+qD"
    "jaVz5Tyi21PvHj1yuT/F3EfOkb5rJ8ED7eoKNuOBMToKzLN611DcwA5Lo9pG7GhRV2X8atDZ"
    "Zyc8u+wI6OG8/zse2EQS+vU/4Uw3KF9B2+zhjWpC7bG3s7QXRx3SdKUVZCQr2f3nxQpdNFOX"
    "Wsc7NDH9e/6oiSDVwHJkEmyq80xVK/76DxITUqvFvL3SblAEwk8+x8jPUKNzE2c1Ez0nr6Lv"
    "3yUL/XSNxlTFEO8kcvsLwu+3dkk+39EZNNe2f7Ss/lMA6Sm5qGG1fViCzv6qKcTkFgrFduXQ"
    "Yo63OcA2wQP2or2+Ai+N55Zb/emIqmaVu5VqLmQRquHBCy7y/Q8jLnlY1P0iIC7MlKxT4b3W"
    "2y+xTdqmpAtZC0nO1L87rJUrrTRGkl4VkEnVPIOYsP5e5R6T8ElUx72PKHFdzh/i4JoawZzm"
    "VJzloRES3aVhMOnPiw9Fa3wqA0U4phASM6epClgtTwK4m2KTNHYnQXzY8OJ7ScNGtKJThYSG"
    "UVBCzGqjnpkqEqlN3DXEFASG7RSEsiF1YFy+5jg0DehATgxwryllp3IWgpOkFZErdEKle3Ui"
    "cw7zGdclXNGGqBNmu3vvsUK8sRVviPNvYwJqFnJYgifVPJjl7XY0CUfZE24NErKQyCZl2UOE"
    "yyfEQqK3hc9ogZt/K0z/+ur+/1FCeZGrvPsxWp9Mn94XZWgbRUg+b9QLZaBXkTwi0oZrsoZ3"
    "FsKCEl0ron6p779LUEfevP0iF5W8RUVcdx/gBLnDBLrASyNElY9oslxbHcAAABUOU4KphU5k"
    "AAHzGoAgAACSwBevscRn+wIAAAAABFla"
)


_SZ_PWREL_PAYLOAD_B64 = (
    "UkJDRgEAeJztlU1oXFUUx8+5976P+XrzJjNJpu0Muakxjf1IR1vTIYl6p7ES69dUugjSyEP8"
    "KNXFqFGGEsp5SS1ZVBikQkWRt3ARXA2iIWAXt6WLIl3MIpRBXDxBMGAXsxwExfcUMRt3XeYP"
    "F/7nXu4593fO4poAYEcLGPyt2J+/8Kvx8dTBp2KP/2zDZybA7/8GAkDCf8okcw+fF2ue28NZ"
    "1/pR77H5IqTm8UBLXAG3g1PS/BYKij2pzTbkNY4Bd4EHeJacOntFp7fxVJB43p+smPd0qct9"
    "mXt65ble4nTt0LrxvSyWVt+qZDZq1Qnrt7C8tbrcybJbqmpbo6OHL3/UcgdO1or2H3Lk7uoH"
    "rvPNzWO2+V1YOLcyV7d+UIU+znlQhZzHWzBU5xdVboG9DKklfNQzt9Q+4u96zpY/Xbfuq/I6"
    "X1LObayG5j3aW+VveGnyJwOjDYMt9iIlJD4kxSXI3sHHPfMGDLXYaW33oST5AiV6sJdYBbiE"
    "pGJrMBjwy5TvsNeUs41zoX3cf6RhbKjiBH87zNz2Z9rWn1pOiOGfI9JnG4nJ2nhXfO7ll1Ze"
    "aCemauOb4lM5MLtyqmGbN0c2+ftB5pp/tGF8qXPbeCIwrlLGxQEABQPE12BY8Sbk6jFXEx8L"
    "zC6V2vwiZftYk7aNo1Jc0a7LTipboOzxZZUNcUZaP9E+xd9U6SZOesY6FDz2DNmAZeKvU6qO"
    "85p7kJRYBCYBPSiR4eK4Mrsw4okvaLAXwWU28YnQEv7+hvhE5ZvsTJA86x9qGRt6aJsthqll"
    "/2jPuKWH+2wxSL3jH2kZX6vB6+ylIDHm76+IS9rZxGOh8RXlezitjTXISEzHxQoggqijEVw+"
    "YOcoHeC0svowqsRVikiv60QVD4ARQIFYHZJREIprkK+zeW27MfEyZTtY1WYHiiFboGQFx5Ro"
    "gkN4mASBo1DGXKBhAqLJzpJVwYPKvAPlMJpc3EyVXMAjoXGD9lT4hZj0hLR+oXKbf6idLs54"
    "1v24ze/p+CQw71LR5a/q6M4ZL3pjto1TOmpqLsTjJBpgKnBBxMVMiCobGorEYVe72tUDkHpA"
    "Oeh/csod3t3h7R0++hPhLy+G5lM="
)


_SZ_PWREL_RECON_B64 = (
    "AAAAAAAAAAAtkPH9oL/4P7RTjPn0ffk/NRmDT5k4+j9mw3mPrfH6P2We363GqPs/yvfP4JBa"
    "/D+YzaOw3gr9P5+kbm3NtP0/wDg6IGZc/j9gmhSnKf7+P1YWB5OUmf8/xq2xNbkYAECNI3Lx"
    "4mEAQDy4FtY6pwBA+et5GUHqAEAnXEDD7ykBQDzVfmY1ZQFAbw/CuZKeAUB019SiMtMBQLbv"
    "qLO+BAJA0GhzdisyAkB/xBjJR1wCQBM+DhUIggJAI4sRTESkAkBdi9P88cECQNAgitHx2wJA"
    "cDBMuTvxAkAd1abLsQMDQCSKY6xXEQNABNGw6CIaA0Bc6D/8ASADQA88aaz8IANASejrWAcf"
    "A0AL4r1ILhgDQDx0lmxwDQNAeCzPWdT+AkAlFaoAY+wCQJ//NKMn1gJAkcqOXSW9AkC/SL1E"
    "f58CQNFAfis+fgJAbKg4E3ZZAkDQaHN2KzICQBrEIx6XBgJAb9O/OK3YAUCDY5ZVmqcBQEci"
    "ByF7cwFAFdY30m08AUAW3QMFcQMBQCRCwI7AxwBAcbw2L36JAECZ65UxokkAQBP0pB50BwBA"
    "+T8Iws2H/z+QMQV8k/z+PxKE6yOEbf4/d65rzHLc/T+2mHYqlUn9P4Hv7sAgtfw/cZirNNod"
    "/D++sGga34b7P8VupXKK7fo/mv66boBT+j8L61ANRbr5P5gxvkGpIPk/63xcaR+I+D+DJQ4j"
    "hu/3PyqFwgk+WPc/Kl8NYl3C9j88Cal1+S32P1ktq8ZBnPU/z1VEnR8M9T+yUlHFvn/0P/Ns"
    "AY4A9vM/r40ZLeFu8z96Sz59VOvyP6UUgb0zbPI/iFMoOmnw8T9G6h6EqHnxP3ERkA/ZBvE/"
    "fwKtZYiZ8D9vU1XcnTDwP2Uw3/Zume8/P3cnbMTc7j8svJijOCzuP58wU+Ophe0/0PfIcxjq"
    "7D9AUTrI4lvsP3DZLyL12Os/XM6phzJi6z84yWUPdPjqP36gr2wxm+o/0QJrG0xL6j+bzwyN"
    "/QbqP7hyMXyU0Ok/6u+GGWym6T8AAAAAAAAAANwWyZ3seek/wPIv8FB36T/IagH7coDpPx6W"
    "gLquluk/245jbia66T9ZTyk4venpP9Gt9OZeJOo/2kMt/q5r6j8iavOks77qP0LSJR3WHes/"
    "yPBGV76G6z+siHfQQfvrPxZCfaJweuw/YPnO4E0D7T9Cgx/WTpbtP0v5Ax1nMu4/F74MSgfY"
    "7j+prhMGC4bvP4H9PtprHvA/rx3QRbx88D+SIZKw7t7wP6dgt5MuRfE/dXHfK9qt8T+lD+sk"
    "ABnyP8goFlqih/I/L4IZPvD38j8KQHfH5mrzPzBdSJSR3/M/YlcCS+RU9D+R6NMI28v0PzzG"
    "qRVzRPU/w91hcIy99T+LFNjE7TX2P4EKnUrAr/Y/s3PCIKAo9z9THRpqmKH3P0xa8qCQGvg/"
    "bwUTri2S+D+FwxLAQwj5Pw64WuWmfPk/j60LGH/w+T80BmRW/mD6P7nj0Wym0Po/IBxyppI8"
    "+z8DDqUyXKf7P56okQgJDvw/mClnK0lz/D8UVJvBDtT8P3l63UShMf0/RJe0Z9mL/T/agvvt"
    "kOL9PzuasOAWNP4/+Si1NVuD/j/JLyciIM3+P3o05DzREv8/rhMRzU9U/z92Vd8R4Y//P3Gy"
    "nUeiyP8/U8KMNjz7/z+dkG7imhQAQPmruxE9KQBA3SfISXs7AEC4rGw6TUsAQFGW+W/VVwBA"
    "RatNrrliAEC6NPlrH2sAQKpi21QrcABAjcct3rFyAEC4bFt3iXMAQCdT7swCcQBAK7TX4s1s"
    "AECIBNsmPmUAQLIwH/sEXABAHXHmj3lPAEB9gM2UTUEAQEFBUCGxMABA+NDeyqsdAEDNx1pg"
    "GAkAQCFL8ya24v8/p787BUOw/z9psEvNSXn/P8Sne658P/8/DniYO1YB/z/IEfgd8r7+P5XI"
    "xB79ef4/1xzZDYsy/j8BlrNZKOf9P1rnf8p5mf0/TPXiWBVI/T8+eAyNmfT8P0ovjYeUoPw/"
    "6x73yCpJ/D/IMcV87+/7PxvS8If6lPs/9wOpCWQ4+z+I0KlLpNv6PwAAAAAAAAAARPdErs0d"
    "+j8O77v0OL75P0DMNX61Xvk/a+v2v0z/+D9tAg5QxZ74P6TKcqGyP/g/vemLFtbg9z/FC+x+"
    "OIL3PxdpSs8RJfc/WVIeOlzJ9j9G7pQI7G32PxhHTCgMFfY/w91hcIy99T/noHBtZ2f1P+Jl"
    "N/mrE/U/Fdx+IUjC9D8hJjmVKnP0Pyf4SLxKJ/Q/hNMOvojd8z+qFUYU1pbzP6+MyHkZU/M/"
    "QAFs6ToS8z9iVemPI9TyPyc0QVGlmvI/sarXk7hj8j8gRfLvODDyPxuQGwL5API/OjwDwfDU"
    "8T+s/oR78qzxP3wz69HkiPE/evIxBLFo8T/DqhuXJU3xP4N74AZqNPE/alDQjjMg8T9kHBWL"
    "chDxP2OaqcY7BPE/cu9PVGb88D8rQ0PADfjwPytDQ8AN+PA/nv6DuYf78D9h0DPFXAPxP/pN"
    "jumSD/E/Us5UunIe8T9sR6kgpzLxP1Rrt+iaSfE//x0Kuzxk8T+D89c0nYLxP0/n7iPoo/E/"
    "ui56bRbJ8T+aMtFeVPHxP7NfnFC1HPI/dYWePE5L8j9ogJnONX3yP55CWnKasPI/igF+BXXn"
    "8j+xGg7o5SDzP7WOYswAXfM/50Ipetma8z8GlrDge9rzP3B3GvP7HPQ/5dWfxFpg9D9vMDbV"
    "qaX0P69tl6Xk6/Q/IvOlVw4z9T/WLCyqQ3z1PxWtWMx1xvU/vTMh74YQ9j/OleMAlFv2P2L4"
    "jlqgp/Y/2dEfiYLz9j/y8mItMj/3P38zItSmivc/Kj6g99fV9z9y/B0BvSD4P7lJaUpNa/g/"
    "3490H4C1+D9EX6QnBf74P0lEkobIRPk/aJhoQVSM+T+WFNE1s9D5P5sg9EhzFPo/ddY5qTJW"
    "+j9Rq/HC3pX6P2sOVhnF1Po/Pw411RcQ+z+NnD8AiEr7PzWnGhWlgvs/Xk0qw164+z+Fzw1u"
    "N+r7P/2qc1T5Gvw/6x73yCpJ/D+YKWcrSXP8P4rQ4kAvnPw/8GAUN+XA/D/ciwbw1OL8P7Ns"
    "jy70Af0/AAAAAAAAAADW83tnnDf9PwfGHxUVTv0/Mcedqhtg/T+2qSyfKW/9P3xKE8e8fP0/"
    "/5yPBs2F/T9El7Rn2Yv9PxsOOA/gjv0/AhCMsVyN/T/+n7AxVor9P92Fzx9KhP0/B5gaVzp7"
    "/T97shrhp239P5DM1rGaXv0/O0axDxVL/T9tX26BHTb9P8wFuIc5Hv0/lpHjaHAD/T+I8i5I"
    "yuX8P3cJoiFQxfw/bkSFxQui/D85dlIyfX38P6+iQVo2Vvw/IVupS7Qt/D9FFYuxHgH8Pz15"
    "1eVi0/s/rC/ac4ek+z996vs4K3P7P6bst+fBQPs/THLMklIN+z+EbQeRhNf6PzXCo4nEoPo/"
    "K0uZ/xlp+j+cQYxRNS/6P4AiL4vP9fk/7eEvSZa7+T9/l0FVkYD5P0lEkobIRPk/remt3osJ"
    "+T/D0Z/3lM34P28FE64tkvg/do0FqxVW+D9MWvKgkBr4P/JHZSid3/c/3VFZ3Tml9z+bsB50"
    "Mmr3Px9EO1TuMPc/UzTlQjb49j/Dbi0eM8H2P9mArLqzivY/OfqxkttV9j8EfYlMfyH2P/FO"
    "QTS97vU//MLJaKm+9T9syKIA/471P0Jlij/VYPU/8swBKDo19T8SlqXICwv1P2O5kbxU4/Q/"
    "fAdrQQi+9D+uXS9eDJr0PxpChGNnePQ/PYzEoA5Z9D+sLWIq+Dv0P/n/qtQaIfQ/A0z3Lm4I"
    "9D9GP9ru7/LzP5wAgSKN3vM/m6R8GU3O8z9TUjQjHb/zP3jtkCf/svM/cp8+jO2p8z8KCo+9"
    "4qLzPy+6spDcnfM/K8ODdNqb8z9wsQZ825zzPy3NiOHen/M/uHsekuWk8z9/Mdbz8qzzP3qW"
    "Y1IIt/M/+K5D1CvE8z/pBVrcW9LzPyJSx+Cj4/M/Sr8sMwb38z/xK4vaiAz0P6VYqIsyJPQ/"
    "/v6KrAo+9D89jMSgDln0Pz0AzB5bd/Q/J9OMutSV9D9fBwqRmrb0P+tnmAa32fQ/4zrKHSL+"
    "9D+eJxjd4SP1Pxf0tn3lSfU/TgqUjF9y9T8AAAAAAAAAABWtWMx1xvU/zkX71xvy9T8UNRJi"
    "GR72P9NX/xlvSvY/AfJPKUR49j8hvhh1d6b2P3pQHL8J1fY/t6GryvsD9z8LQqlcTjP3P+qS"
    "jDsCY/c/xH4RPOOR9z/msq40IsH3P8jMwOG/8Pc/nMIZqkQe+D/a1b56Xk34P6mkylyTe/g/"
    "QLhe3dyo+D8WV8yhNNX4P/mID2mUAPk/rzZGDfYq+T/yNL+In1X5P7RTjPn0ffk/nVL5oIqm"
    "+T+6+xV4vMz5P4xwthrT8fk/CBjmIskV+j81GYNPmTj6PzNSaSrlWPo/WHUL2v13+j9Rq/HC"
    "3pX6P+COT3SDsvo/Lq0+YojM+j+sF8IgRuX6P8QjJPi4/Po/tj6mkXoR+z9cZ6ZU6CT7Pzfh"
    "IqeaNfs/DbuTzfFE+z/0CqhbhVH7P1C9uQ24XPs/R3pnLYhm+z+H+LC0jG37P33q+zgrc/s/"
    "R+ih6fp1+z9eVZjdYnf7P15VmN1id/s/0L8YCJN0+z+NcwPSW3D7P076u5JWafs/1SNMH1Ni"
    "+z9ga+whHlf7P0mFsLrtS/s/vw3sqfc9+z8ra0dwpC77PzDEXwOTHPs/9f//mI0K+z9hggZP"
    "0fX6PzSJf6jE3/o/OY2D+WrI+j9ZEWzGx6/6P1Gr8cLelfo/UDnDzFh5+j+Plctw8Vz6P/sU"
    "aIJQP/o/p+biaHog+j98Tda1cwD6P9lItUSU4Pk/Du+79Di++T+l0RtCC5z5Pyl8Xw+9ePk/"
    "8jS/iJ9V+T96iDwxaDH5P4h2UJ9kDfk/jRFKDU7o+D87PExjbsP4P+uhxKiCnfg/5LTs/9B3"
    "+D88Q9gPWVL4P2pGI4AaLfg/wRLx+BQI+D8qiOsiSOP3PxtEQqezvvc/ytSpL1ea9z9ZCrfu"
    "ZXf3P5wHf6d2U/c/H0Q7VO4w9z8H+tZaxw/3P/Pvw8XP7vY/XLtCUQfO9j8fvqz6lq72P7Fr"
    "orF5kPY/dDSQoKpz9j+ABIxXAFf2P6AkmgWeO/Y/Pj4OY6Ei9j9G8H3VwAn2PwAAAAAAAAAA"
    "Xshmra7b9T9hTJA5k8f1Pxlb2kSKs/U/Avraq8qh9T8fbafuTpL1P/+Pi0begvU/7nPRFKt1"
    "9T9nlUaamGn1PyFWyBS9X/U/i8TNwv1W9T9eFuVKWU/1Pxf0tn3lSfU/rma42olF9T+SfeBe"
    "XEP1P6zRW7ZFQvU/kn3gXlxD9T+uZrjaiUX1P4ali3/OSPU/pHlFBUJO9T9lpI99zlT1P4Zy"
    "SuqMXfU/QjeR7E5m9T83ifN7RnH1P8I+7vl2fvU/gG3QlK+L9T/bYCWRJpv1Pw=="
)


_SZ_ABS_PAYLOAD_B64 = (
    "UkJDRgEAeJztk+9vk1UUx7/nPs/Tn0+7rpRSRictbMLcBo9sg41NdmUIFQdsggGHYMElFtik"
    "IEGcBC++kJls8mSiEhQ3CcElECgBFMNMbuKMEgY0KNAXGAuMOBIwVachOBJLNPFP8M0+ybk5"
    "J+eek3tPvkcBYMvar7Gb7afuDc956BP+Ybw9e7B/AxUI4T+8QCp+NrzzdbU3d9tT0kOl6mJP"
    "e236T9GnvOI2Z+Eypil5eqq054jYxdbbv5sk3hQXqM2S8mMJnNSsxBw8H3WYjxEyfFLgGzbi"
    "MutkNXVr5eMbNspbVGErn5x8X7axVsfJYuNzOcyq9ZYZDRd5o9LpKp8VT/NOZZV7uMq4zXuV"
    "z9x7Zpu35adKq7ugKnNdtinHXf0V8Ut8prJT32MYffwKu+u4VpTs5lH2wDYYTu6QV+m85U7A"
    "aOJ1tEldlmOWyUN4QB2DBfGldmxFRBV5wsQPbK8rWitC5NAq/emoOEDMmszHDuFlR21TC0If"
    "iBYGh6co1Itj7BdHrCR9QlxlW5yBaaEvcYt1OUPTer4QKRZxmiXyGE6wfY5tRTggtrIuu60Q"
    "u0Uhq7HFJorX0E+HLOlA9AU8R2m1Jxe14kfcz/YOhbAGDjIYSObhJrZoRj7vwhl2Uk9UcaJW"
    "tX5Mw1LeTHc1fbyxTp6mYmtfvucNeZ/CtnnhzC5exM7aOiYbf01d3z3B3lEQ7+IRNsFeU5DY"
    "zauyqYOTjHbuZ8W2wYnGdnmdnrYGg5kN/BMqtmwZZ66Qi+gn1edNzJW/Y6MyT888Jt/DXSqx"
    "xL38cbyU1UZag4FH6J4m8tGJDtbuFGXiBlLKXg8WiFK6rw75xHK00JAWDYhm8THttQzliVZ8"
    "RQ5rPCg24zzNtg4FxatigB61RoPRuDhDVyypvOi67OWIJR5IrxYbqV3jY6ONYibtU2O54kkx"
    "jA7F4+qZzl3HF55da5NBvAiD2hVuF7nQUE8ZO5+NMhrWGoL8LSxh8xyeUvk1FilBd7JajmCK"
    "uizXiPBiuqwOjjEb+WJaqh0cm1meHeZ+7aDfs1K20CltwJ9s4uvoQ63EH1/OV9AzWr/P0yhr"
    "6KJ6xJst92flP5yTqeE/Y4MyoGem8+PoZPV2Myy3ops6tLhXVuEwTpJHgYKF8DDoYg7KKaHx"
    "vKzU3Az20BT0IsmGnHwGvsdmZYU7Wo0/8JFz7eLIXOGihQ+/PF8EqU2FNxRBmISayY0uwARa"
    "rUZy03XCSQH1Xo6YI37DEaXSLWeKSyhQoEdLxWG8zaL2dHYLcYlMCx+HRvgeDsopQngWAknI"
    "HLSihZm6fAKFVK4lxvEYztGAtSEs38UqNmJPFsmjuMr6nKYhv0WZ4nPFK2QKm5Q7LqOS30Cn"
    "UuPOVMqbeEfR3clZ/BpeVppdZjm/gEKlXk9Ml6dxjvU7GorkfjzP9NhQ05oduEwDlkxANmEB"
    "bVcTObwCxxBkhkW6MRYcUUX4s+8zmdBRDZ2kmvaJlRhllFFG+b/4G/+hZy8="
)


_SZ_ABS_RECON_B64 = (
    "AAAAAAAAAADItaFinL/4P+kwX16Affk/DTz3Hi45+j+ns5PBUfL6P2Ni83FtqPs/tCRATS1b"
    "/D/uX1lpUgr9P9tVSPlJtf0/z2vsEtVb/j8+fm/Tn/3+P5lp+1dWmv8/KgXdXtIYAEDhYkUN"
    "pmEAQLr3cMlxpwBA0jqqmiDqAEDT3uALkykBQGiWBKipZQFAy0+qfTqeAUD7CtKMRdMBQDG2"
    "EOSgBAJAi8iwijcyAkCWfVcE/1sCQG9MT1jigQJApHA9CtejAkBTYWwhyMECQAhagSGr2wJA"
    "Nx/XhorxAkD7J7hYUQMDQOKvyRr1EANA0T/BxYoaA0BWE0TdByADQOHurN12IQNAdNL7xtce"
    "A0CAgosVNRgDQOiHEcKjDQNAOx4zUBn/AkA/V1uxv+wCQPUyiuWW1gJAPzp15bO8AkB0uiwm"
    "Np8CQAR4CyQofgJARcAhVKlZAkCL4H8r2TECQLth26LMBgJAKpFEL6PYAUCegCbChqcBQIj0"
    "29eBcwFAlIeFWtM8AUAz/n3GhQMBQJ0ui4nNxwBAKGa9GMqJAECatn9lpUkAQLoxPWGJBwBA"
    "u0kMAiuH/z96zEBl/Pv+Pz0P7s7abf4/lDXqIRrd/T8o2lVI+Un9P00ychb2tPw/rthfdk8e"
    "/D/Z8PRKWYb7Pz4nvW987fo/a5+OxwxU+j/ufD81Xrr5P1XjpZvEIPk/D39N1qiH+D/J6lbP"
    "Se/3Pw9KmGn7V/c/UkmdgCbC9j89g4b+CS72P0Ck374OnPU/B0fJq3MM9T86BmSvd3/0P0yO"
    "O6WD9fM/A/G6fsFu8z/P2m0XmuvyP3ldv2A3bPI/qhPQRNjw8T/vIHam0HnxPywOZ341B/E/"
    "04cuqG+Z8D+qnzcVqTDwPyi9b3ztme8/PtAKDFnd7j+XeEDZlCvuP039vKlIhe0/J3Drbp7q"
    "7D+z9KEL6lvsP/CK4H8r2es/NGjon+Bi6z+4ek563/jqP8/3U+Olm+o/e9/42jNL6j+6MT1h"
    "iQfqP1QAjGfQ0Ok/SUvl7Qin6T8AAAAAAAAAAERWt3pOeuk/ggTFjzF36T9UHXIz3IDpP7ug"
    "vmVOl+k/YVlpUgq66T/TakjcY+npP/iNrz2zJOo/z8Kedvhr6j+R96qVCb/qP7AI/reSHes/"
    "ntLB+j+H6z/PMSB7vfvrP7UCQ1a3euw/wSFUqdkD7T9ma32R0JbtP1CqfToeM+4/K6kT0ETY"
    "7j8vVtRgGobvPwQ+P4wQHvA/zemymNh88D+sHFpkO9/wPxSzXgzlRPE/ISQLmMCt8T9hw9Mr"
    "ZRnyPyz2l92Th/I/uarsuyL48j98vfvjvWrzP8mTpGsm3/M/FAoRcAhV9D+VDtb/Ocz0P9z0"
    "Zz9SRPU/IqtbPSe99T+8lpAPejb2PzoLe9rhr/Y/1PavrDQp9z/9NVmjHqL3P+62C811Gvg/"
    "Ns07TtGR+D/y7zMuHAj5P7FyaJHtfPk/q0Nuhhvw+T9UP28qUmH6P8fctYR80Po/lG+2uTE9"
    "+z/XbrvQXKf7PwO37uapDvw/NL+aAwRz/D/dY+lDF9T8PxocJa/OMf0/XcR3YtaL/T+nXOFd"
    "LuL9P2rBi76CNP4/pvJ2hNOC/j+xVYLF4cz+P6dh+IiYEv8/wQRu3c1T/z85LXjRV5D/Pw/b"
    "FmU2yP8/XoWUn1T7/z8xDcNHxBQAQAzNdRppKQBAz72HS447AEAJG55eKUsAQCupE9BEWABA"
    "Ud8yp8tiAEB8vfvjvWoAQI7MI38wcABApoP1fw5zAEAzp8tiYnMAQDc3picscQBAlbw6x4Bs"
    "AEDaci7FVWUAQOviNhrAWwBAyAxUxr9PAEBTeTvCaUEAQI0o7Q2+MABAWqMeotEdAECccoV3"
    "uQgAQIq1+BQA4/8/jkC8rl+w/z8MmMCtu3n/P61WJvxSP/8/cHztmSUB/z8CpDZxcr/+Pwto"
    "Imx4ev4/i8iwijcy/j8R6bevA+f9P2LboswGmf0/ZCgn2lVI/T+i8xq7RPX8P+RO6WD9n/w/"
    "1dSytb5I/D9XDi2yne/7P/geLjnulPs/nI9rQ8U4+z+zDHGsi9v6PwAAAAAAAAAArthfdk8e"
    "+j/mXIqryr75P5G93v3xXvk/dAzIXu/++D8C9tGpK5/4Pzp6/N6mP/g/xzNo6J/g9z81Ruuo"
    "aoL3P2k6OxkcJfc/Dat4I/PI9j/nqQ65GW72P6PRHcTOFPY/BTQRNjy99T/X4lMAjGf1P93v"
    "UBToE/U/4GxzY3rC9D+I9NvXgXP0P7sPQGoTJ/Q/PtAKDFnd8z+80FynkZbzP1GIgEOoUvM/"
    "ixpMw/AR8z9qh78ma9TyP5lp+1dWmvI/MzhKXp1j8j/jjcwjfzDyP43zN6EQAfI/MGmM1lHV"
    "8T+wd3+8V63xP9MwfERMifE/twvNdRpp8T8iGt1B7EzxPzHT9q+sNPE/x7/PuHAg8T/k32dc"
    "OBDxP2u8dJMYBPE/ecxAZfz78D8PEMzR4/fwPyuHFtnO9/A/7Khqgqj78D8z/n3GhQPxPzt1"
    "5bM8D/E/5pZWQ+Ie8T+LyLCKNzLxPwyTqYJRSfE/pOTVOQZk8T9uNIC3QILxP2uCqPsApPE/"
    "1LzjFB3J8T/h0cYRa/HxP5TBUfLqHPI/JXoZxXJL8j/N6bKY2HzyP6mHaHQHsfI/80HPZtXn"
    "8j/FjzF3LSHzP3jWbrvQXPM/ChaHM7+a8z/uKqT8pNrzPyMVxhaCHPQ/ADrMlxdg9D++h0uO"
    "O6X0P5bs2AjE6/Q/wVYJFocz9T9cPSe9b3z1P70FEhQ/xvU/HJ5eKcsQ9j/Pa+wS1Vv2P9du"
    "u9Bcp/Y/iQyreCPz9j87qpog6j73Pwq/1M+bivc/LznulA7W9z//fcaFAyH4P5cEqKlla/g/"
    "MLsnDwu1+D8hByXMtP34P2non+BiRfk/ejvCacGL+T9UAIxn0ND5PzIlkuhlFPo/Zw+0AkNW"
    "+j8SNjy9Upb6P04QdR+A1Po/OBWpMLYQ+z8mqrcGtkr7PzVG66hqgvs/gWCOHr+3+z8ncOtu"
    "nur7P19jl6jeGvw/KjqSy39I/D+laybfbHP8Pwnm6PF7m/w/VanZA63A/D+mLEMc6+L8Pxnn"
    "b0IhAv0/AAAAAAAAAACCeF2/YDf9P5TGaB1VTf0/5MKBkCxg/T+sWz0nvW/9P7KiBtMwfP0/"
    "Ew8om3KF/T/QoKF/gov9P+dXc4Bgjv0/Pb1SliGO/T/uR4rIsIr9P92Azw8jhP0/7vDXZI16"
    "/T8hmKPH7239P3V2MjhKXv0/zxQ6r7FL/T/1hCUeUDb9PwQ+P4wQHv0/wlHy6hwD/T8TSfQy"
    "iuX8P9us+lxtxfw/GH0Facai/D+Ty39Iv338PxKq1OyBVvw/lBgEVg4t/D/+n8N8eQH8P/ra"
    "M0sC1Ps/h8lUwaik+z9sfZHQlnP7P41/n3HhQPs/seHplbIM+z+etdsuNNf6P1X7dDxmoPo/"
    "gE3WqIdo+j/lvWplwi/6P4RMMnIW9vk/JQuYwK27+T9xlLw6x4D5P2non+BiRfk/0xito6oJ"
    "+T9awARu3c34P/3epj/7kfg/hIb+CS5W+D+1yHa+nxr4P3MuxVVl3/c/alIKur2k9z+1q5Dy"
    "k2r3P+JdLuI7Mfc/1PGYgcr49j+NZ9DQP8H2P9HQP8HFivY/TMgHPZtV9j8axXJLqyH2P+Vh"
    "odY07/U/rp6T3je+9T87jbRU3o71P3C2uTE9YfU/MKNYbmk19T9BZfz7jAv1P8Fz7+GS4/Q/"
    "duCcEaW99D9hqwSLw5n0PytvRzgtePQ/DRr6J7hY9D+zRj1Eozv0PzhsW5TZIPQ/gBMKEXAI"
    "9D+KPEm6ZvLzPx/5g4Hn3vM/WsAEbt3N8z87kst/SL/zP8Ju2LYos/M/tmeWBKip8z9Ra5p3"
    "nKLzP3YCmggbnvM/QKTfvg6c8z+V2SCTjJzzP3OiXYWUn/M/FO0qpPyk8z9bQj7o2azzP2YZ"
    "4lgXt/M/M3IW9rTD8z/fwyXHndLzP2sOEMzR4/M/EEBqEyf38z+x4emVsgz0P4fhI2JKJPQ/"
    "kj8YeO499D8M6lvmdFn0P9hppKXydvQ/SyTRyyiW9D9mGeJYF7f0P0XAIVSp2fQ/BJDaxMn9"
    "9D/C/1ayYyP1P7X9KytNSvU//ACkNnFy9T8AAAAAAAAAANl8XBsqxvU/qOMxA5Xx9T92Gmmp"
    "vB32Pyaqtwa2SvY/8oCyKVd49j/1FaQZi6b2P2lXIeUn1fY/a7x0kxgE9z8XvOgrSDP3P6dE"
    "Er2MYvc/GlbxRuaR9z/GVWXfFcH3P6tDboYb8Pc/5pZWQ+Ie+D+wPbMkQE34P0ImGTkLe/g/"
    "gNk9eVio+D/cM0sC1NT4PxxHrMWnAPk/l3hA2ZQr+T+FtpxLcVX5P64SLA5nfvk/hGkYPiKm"
    "+T8Hu2Hbosz5PzYHCObo8fk/TDygbMoV+j9HWipvRzj6P2JPO/w1Wfo/f6SIDKt4+j/1vvG1"
    "Z5b6P6cnLPGAsvo/lN43vvbM+j8TSfQyiuX6P+t4zEBl/Po/cNOf/UgR+z9ratlaXyT7P/e0"
    "w1+TNfs/MSqpE9BE+z8Zyol2FVL7P7CUZYhjXfs/EQGHUKVm+z8EIVnABG77P8LicOZXc/s/"
    "Ls+Du7N2+z9kXdxGA3j7Pyyf5Xlwd/s/v4I0Y9F0+z/kGTT0T3D7P5pk5Czsafs/4WJFDaZh"
    "+z+6FFeVfVf7PyV6GcVyS/s/zC2thsQ9+z8ElfHvMy77P1vTvOMUHfs/C9ejcD0K+z/2KFyP"
    "wvX6P8hjBirj3/o/uXU3T3XI+j+PcFrwoq/6P0xUbw1slfo/tjLhl/p5+j/NC7CPTl36P3No"
    "ke18P/o/cVrwoq8g+j/jWBe30QD6P491cRsN4Pk/WTm0yHa++T8kLZW3I5z5P/BQFOgTefk/"
    "aT9SRIZV+T+pb5nTZTH5P3jzVIfcDPk/uVM6WP/n+D9RGf8+48L4PyHNWDSdnfg/Dvj8MEJ4"
    "+D/7IqEt51L4P+hNRSqMLfg/gBMKEXAI+D/Bc+/hkuP3P61u9Zz0vvc/7Z48LNSa9z+few+X"
    "HHf3P4gW2c73U/c/jPhOzHox9z+sIXGPpQ/3P66jqgmi7vY/rvVFQlvO9j9YsmMjEK/2P6rZ"
    "A63AkPY/pWsm32xz9j8t8YCyKVf2PyTzyB8MPPY/bvqzHyki9j8MB0KygAn2PwAAAAAAAAAA"
    "CEKygAnc9T9J+Um1T8f1P4hQpWYPtPU/4L4OnDOi9T82zTtO0ZH1P4p7LH3ogvU/2sngKHl1"
    "9T/vycNCrWn1PwJqatlaX/U/9TKK5ZZW9T/JJCNnYU/1P2HI6lbPSfU/9gt2w7ZF9T9QATCe"
    "QUP1P4sfY+5aQvU/pmYPtAJD9T+i1jTvOEX1P5vmHafoSPU/dh+A1CZO9T9N+KV+3lT1PyJx"
    "j6UPXfU/9Yk8Sbpm9T/9MEJ4tHH1PwR4CyQofvU/XcR3YtaL9T/tnjws1Jr1Pw=="
)


_CHECKPOINT_B64 = (
    "UlBDSzAwMDFEAgAAAAAAAHsiZW50cmllcyI6IHsieCI6IHsia2luZCI6ICJibG9iIiwgInNo"
    "YXBlIjogWzUxMl0sICJkdHlwZSI6ICI8ZjgiLCAiY29tcHJlc3NvciI6ICJzeiIsICJtZXRh"
    "IjogeyJlcnJvcl9ib3VuZCI6ICJwd19yZWw9MC4wMDAxIiwgInByZWRpY3RvciI6ICJsb3Jl"
    "bnpvIiwgImZvcm1hdF92ZXJzaW9uIjogMSwgInNjaGVtZSI6ICJwd19yZWwifSwgIm5ieXRl"
    "cyI6IDgzMCwgIm9mZnNldCI6IDB9LCAicCI6IHsia2luZCI6ICJibG9iIiwgInNoYXBlIjog"
    "WzUxMl0sICJkdHlwZSI6ICI8ZjgiLCAiY29tcHJlc3NvciI6ICJ6bGliIiwgIm1ldGEiOiB7"
    "ImxldmVsIjogNn0sICJuYnl0ZXMiOiAzODg4LCAib2Zmc2V0IjogODMwfSwgIml0ZXJhdGlv"
    "biI6IHsia2luZCI6ICJpbnQiLCAidmFsdWUiOiA0Mn0sICJyaG8iOiB7ImtpbmQiOiAiZmxv"
    "YXQiLCAidmFsdWUiOiAwLjEyNX0sICJyYXciOiB7ImtpbmQiOiAiYXJyYXkiLCAic2hhcGUi"
    "OiBbMTJdLCAiZHR5cGUiOiAiPGk0IiwgIm5ieXRlcyI6IDQ4LCAib2Zmc2V0IjogNDcxOH19"
    "LCAibWV0YSI6IHsia2luZCI6ICJkeW5hbWljIiwgInRhZyI6IHsiaXRlcmF0aW9uIjogNDJ9"
    "fX1SQkNGAQB4nO2VTWhcVRTHz7n3vo/5evMmM0mm7Qy5qTGN/UhHW9MhiXqnsRLr11S6CNLI"
    "Q/wo1cWoUYYSynlJLVlUGKRCRZG3cBFcDaIhYBe3pYsiXcwilEFcPEEwYBezHATF9xQxG3dd"
    "5g8X/ude7jn3d87imgBgRwsY/K3Yn7/wq/Hx1MGnYo//bMNnJsDv/wYCQMJ/yiRzD58Xa57b"
    "w1nX+lHvsfkipObxQEtcAbeDU9L8FgqKPanNNuQ1jgF3gQd4lpw6e0Wnt/FUkHjen6yY93Sp"
    "y32Ze3rluV7idO3QuvG9LJZW36pkNmrVCeu3sLy1utzJsluqalujo4cvf9RyB07WivYfcuTu"
    "6geu883NY7b5XVg4tzJXt35QhT7OeVCFnMdbMFTnF1Vugb0MqSV81DO31D7i73rOlj9dt+6r"
    "8jpfUs5trIbmPdpb5W94afInA6MNgy32IiUkPiTFJcjewcc98wYMtdhpbfehJPkCJXqwl1gF"
    "uISkYmswGPDLlO+w15SzjXOhfdx/pGFsqOIEfzvM3PZn2tafWk6I4Z8j0mcbicnaeFd87uWX"
    "Vl5oJ6Zq45viUzkwu3KqYZs3Rzb5+0Hmmn+0YXypc9t4IjCuUsbFAQAFA8TXYFjxJuTqMVcT"
    "HwvMLpXa/CJl+1iTto2jUlzRrstOKlug7PFllQ1xRlo/0T7F31TpJk56xjoUPPYM2YBl4q9T"
    "qo7zmnuQlFgEJgE9KJHh4rgyuzDiiS9osBfBZTbxidAS/v6G+ETlm+xMkDzrH2oZG3pomy2G"
    "qWX/aM+4pYf7bDFIveMfaRlfq8Hr7KUgMebvr4hL2tnEY6HxFeV7OK2NNchITMfFCiCCqKMR"
    "XD5g5ygd4LSy+jCqxFWKSK/rRBUPgBFAgVgdklEQimuQr7N5bbsx8TJlO1jVZgeKIVugZAXH"
    "lGiCQ3iYBIGjUMZcoGECosnOklXBg8q8A+UwmlzcTJVcwCOhcYP2VPiFmPSEtH6hcpt/qJ0u"
    "znjW/bjN7+n4JDDvUtHlr+rozhkvemO2jVM6amouxOMkGmAqcEHExUyIKhsaisRhV7va1QOQ"
    "ekA56H9yyh3e3eHtHT76E+EvL4bmU3icPZd5VE1d3MfvkEehVChKs5SklNmD70E0UJREoyK9"
    "QoNCgyIpRYVGSiopKaJJEmlA9VAyxKMSSaTScLv33OHce+u9a73ves4/33X23mvtc9b+fT/f"
    "36bR/u/R83oryKnlQ/F5jU54uAB8nR2E4RoKbfEJ0hbjFFKKnPYfvSPEzLcGqaucRei2nhpu"
    "NU2MN/tqn1g8FENNw/j3Z+cJXDSIfpInnkA2/dg6x4xJHCpXPP5hLo0YqUn4k+NBI6ScGkj/"
    "AhrRkFzspzVII/rzaOuSFtGJnLrS7fkH6URam3nphiw68fRrV67ZBzqR2PT6UrYUg5BxU9Fc"
    "a8ogvFeGmtNdGMT3LtqmvrMM4qvS2az2WwyisSBuY2M9g7DIVjr0oItB3CNa7sSyGESpKpOz"
    "nckkIl95JAnkmURImIn2JRUmcdr4QPIMTSZx1ni7dogWkzDS1bDtVGcSsUV6PavnMolJqbYX"
    "2bJMItHimMb8SQaxtHHa0po/DKKdaLRM+STZl3f8ZcVTBpGgTY0vy2YQtMlymUWnGYSK8rBy"
    "saPk+z65szpNGMQr+rf5bX8xCP7EvPqCz3Qib8+9K1EFdGK9+v6H5wPphJPFh+q36+iEta1L"
    "8HkmnUh4Fkm1NNGILKcPR15doBFmRhbifEsaEX3Y7E3MVBqhb+J9xyRmEo3ihnNTRBNIDpbu"
    "/uYzgSRz+xClbjFEzcN0mpUY96QK3rErRChdZNJgqS4Cf1eUwPG8ENnKQY/ChinI03N1ptlT"
    "SOoqUnWqFmCBzizGC00BNOLyErJi+DATpKZjlIepNZFc4R4emnSt1+k1cGH4W+rGLCMuBMyB"
    "KoVMEs3ymYH+M0gE0m++CjvDQWL8iuKzJBsJYVkfm3zZkF4uuJU6NI6IijzK6Og4sn12zf84"
    "xsK2GZ/iGkNYaPe+P7xhKgs+WcFDJ9PHwFFaNS9v6RiYr1Ues9JH0Xn/912L7hHI7v5+NW/x"
    "CG7KFS51iB6GxT5d44LBP/htYre80/kPrvTYlBh0DKHkWmFry/4hmJgOuw/zB/FeI/BL6fVB"
    "aJUFW6zeNoiA08dxdeogCMfbI91vByAn6FCZXTCA/7cBzVimzdAydADhybe4pkEDSIh4sbg3"
    "YgCWRxpc114dgKviVb251QNYHmtsYzswgJszMvoqFgziTsLTwOlHB5EhPqmrXDsIwZgiO1lt"
    "CMY7ej6tihnCjB3dtHLhEL6e2ipXEvoHu1QGN7czh/GWnPu6Nm0YLw/JsmSXjUDKPufQ7s8j"
    "mFWhfUn//CiCX1/7NE19DGalhnkfwsaQaGtkYvptDBbiYM/fZiwoanuVVBaz8On1vjUu88Yh"
    "bhgUpcWMQ8pJQaDDH4fLqLJ97WE2nPU9oxZ8YyOEeyZYbjcHtxK1ale1cHC5SuuBkxmJvmrL"
    "yyY1JP6W/1FzciUXWhfH/+17wEX8eZmelYt4oA1d9dTP5aFFvSj/hAofj8snHncl8uE+tq98"
    "rrQA9uIlDUNhAljJTd07Z0yAmrOnLPd4UOi//nTk+FsKxIoVm5etF+Kpn4jpWCDEX5azWu/L"
    "iaBV5LZiMkCE1IM7B5TaRag4avrihYkYX92lf3fEifFPjOjDol4xjsrbhFxcPoH8iEc27ZET"
    "4Cps2d/bMoHiimTvJMVJXPYMePti1ySO+/W8dLkyCcrM05xongTb9ZHBXuEkpnv0KjbPphHv"
    "7cMOH1lEI0r2jH279DeNUDktd99wG40I7bONIfZKuFR/L7VpP42Q844IqTtMI95uf26+2J9G"
    "zL+wJ0YmkEZEDKUscZPoqm6ZjCXHaMQSWlBi+FEaoVsls3r3QRrRu6FzWo0zjUgxK/v8bAeN"
    "iAvTqj64kUZ4vfsp/WwpjWDZFTt8VKMR9ptXH6iWphGc0ec6VO8kglWMa1xKJmHkGZNXFzKJ"
    "xbq+w9swiVELg5SF9El43co4EFor4aubbWdA6AT01g7IrTedgH1hfvLUfjFyNP0cGeliyCxc"
    "n+RmIUbRr8kkG1KE1xtUH07JEeE+oldVWYjQbpuhcX1UiCPzH8/rSxHirmOV4z+rhbhWYXHq"
    "bBf1nw+cKvxVt6pTSNh/9GndMwEuP1feMugmgOa17RGCCT4+BVj/XJDNR4xWXEgu+Cht6ykr"
    "6OFhbp+Dk3ckDwtNw/xUdXl4c9tzBquZCylNF6v5vlxMZDrrvZnNRaSvzdGVknrbGLE85dz/"
    "kDCEUUXvLBIZf532PNPAgbfrxaJzgRzcvj30Q1mPA+By2f5uNprsBAOxaWx8nigOL7ZjQ/f2"
    "P/4sBTa0M9oaA9vHYXX+4QnbjHEMWpg45h8Yx9cFNnqxS8dRdMLaS54+DqPtnw7YfWShIu3k"
    "EneJb3zKgy5aXmChK3YqT9WbhU3hlTm921k41WfpeXu5hE9Pvrf4aLJQ0uo3e708C9Ouh+sq"
    "SbEQUbI+iy8cQ4dDX/t33hiI7k3dLRK1lc25XCYZD37QdOUCkwV9DyvnrTNZWOv2y7JLnQUD"
    "M4Vbq01ZKCMy8rdbsvA5wTmN6clCXgrrjXkkC73xPq30PBYMOXyzuf+w8KDezdifxUJlq++3"
    "P/PHcSnceLb/tnHIHXw3ozNsHBtW7b0hUzqOafJ/Nn/pH0fd55cbjLTYWG1ZmNvpwkZV29dj"
    "TzLYKArJLi/sZMPwbV9c+HwOHp66tEvOnYM1R9pKTPM5iDBsf1A3xEHU/JSuhGUk9sytdfAL"
    "I9Hm/pizppHE9eNX7Rrkudj3bPrYF2cusuestnAr4MJs7e5BFTYXN25pJ/Vv4MFumQKRfpGH"
    "5ZmqtlM+8aCXjDS6Fh9/L4k74nmED6Z22Ruph5I+g6lxolrMx4WO499dtwigRj8Z3BwnwKxz"
    "W1Lb3wowksfPdJ1NIb7dV4FwoNCS6nXLMY1CaGrj5gvtFIxiFZc/kBeihiGlVGwlRL8UQR2M"
    "FEI2TNv32SMh0lLSYzMHhYjcPJ3bryJC1V8E86Kk/nOP2RT4BIrws/xc/JnrIrh/3zL3fp0I"
    "gy7DxwZ6RXjhkRyrwxD/54PO+Ki7nqvECPi+N3evtRgpXRHGuu5iyE9f6fzSTwzfeIKxMkyM"
    "iwcD209EixHnomMXLeFW+KXrzV6XxFC/mmytLtHDeXcfl14UY50D+6Z+lERbInbGh4rh0KD2"
    "tN9HjI9zFM6Yu4lxPHJ66+NtYqT/u+GQzUoJ92wLUpXUxYjUvyyvyxRj9LW9OOGnCFmpYV1e"
    "L0VYqaEc1Jgrwtz70R0vwkXoDLq95pSDCFNfBgwxl4iwb+W8HaF0EVQKs2qpD0KsOyR/NjdP"
    "iKoou/uXA4XQ3JW68DshxLfF4aGVM4SwuTW1w/hfClsj1oh8cig0N+TMSTpEQUOhsrrGmMLp"
    "b/rvFLkCLM3SOlX+RIB7i6OZDRECVJWZvXKXnOM8xsulZTICvLM8dP5zKx98xhaSlOSEb8Zs"
    "P0MHPj5v9sy4IckPK23FusPfJHlSqfm4Io+H2o2DX64f5qEnrGYUJjzINf1RqONzUXph74O1"
    "9VyEW4X7tV7kwiBSdmHqbi7OsNVfFGtxEfdl3NJ0lEQ/d9/jdc9IrGrvk/51iURr1SHlrR4k"
    "fO6U5ASuIHFlIME0ajqJiLevtON/cHDNuDM6q4aD1fbWC1vTOZChzQ7XD+bAx+FCUe1eDvTW"
    "7fTP+ZuDhCV0w381Oaiec/e9rzQHySv1h/3H2ZhWZZ768ysbLsLXgR9a2Qh0WF+LWjYcPK/8"
    "bVTOhjgna+3NQjYOJvndSM9lo8d65yelLDZePaocUspkw8Bn+FSaRMnOqPor2Wyo34i+NpnH"
    "RljHvqiue2ws60+qVH3ERuoyaaXK52xw+Krm2e/ZCGbaVLz6wYbmkZSrBjw2LnVYSpXM4KA0"
    "v4RltYCDzU3MrYPrOdjkLtd7ypGDZ86biv+clPjaa2uufhoHbTvZXSqPOIh8VJVb3MHBvAL3"
    "0FdiDrxeLFrqpEOiydN4wMyKhPEPJZOAAPI/H5huPcs1lnCgaYrprAQWicKF71Ub1biIKRw+"
    "U2fFhdvhQ8c8grlQ8VDmJNzmIuv3nmGDj1w0rc9cpibFg2N43w3LZTwonFOdlbqfB9vFO9L7"
    "Enk4lfnEU62ehxVeN38tGOPht//Xrh51PrYNbHReZc3H99jkH3Kn+BC0b/W2ucPH1sUfDnS3"
    "8/GjrLDzFk2AifiGYxcXC5DWX30idLcA+V/D+11PC1B5MCBG47YAdc/1e4paBLANj9z5hyXA"
    "hq875rybQ4FT5GZnvprCUAepssGRgkpidUh+MIUTE1SQr4QzZ2guC+LKJJwZ/3VtpIXC3u0n"
    "aAk/KVgbB193FlGQM1d5sVNBCKfuataBBUI4WNc/SVghRMLR5q4mMyEWdWsZy9oJ4ZJZ+sjR"
    "VYglp7Uzi7yEMM8/rjfhI8QBj/6mXRL/nVhDyN47KUQ1jt2WDhZiZMFNt6NBQsn/Xp3XdVwI"
    "v+qkNkd/ybxSVOyItxCTBvUOOR5CKK3RsQ3aI+Hfvez4sG1CXGW4zKmW9FeBWzb1rzUSwmeN"
    "6q9papJ8j132ceU0ITROJ9q0kBQaZtY/7vhGQXbxuk2+zRTiPE+0pj+g8MM+buxoKgXj2Xd/"
    "8kMoSb3on93hSiHRym7hOVBgVk57eluTwid3/ZutNAqXkwtzpvcIMJ169vO4pD9IOf9wVC1T"
    "ACKoMVo1RACdxPaiSMl5sHPVEg+ZCPDcqT+hd4YALv5Gsn/95uOW8r7o3w18bLihdiT7Bh9n"
    "BLq6RDAfUrKWtB47ybjaJZ2UJXzU/3Um6pg0Hz+D8rvif/Bw0A3p1DMedC8s7XyTIckb21Wu"
    "akGS+8mwd7BgFw+ZPfSZJyX8yKwKjcmfyUO5nkxD+ggXX5b7zfR8w0WAoqn+HElf69a7YkHN"
    "FS4e+T8POBIo4Umh8L3RHi5GLJ9un7OOC/mpgkWG2lw8Vo0fOyPD/c8HDaJOpxlfSJhVdkk5"
    "NZGoV26+LldBYm740mjTXBKKW5+YtyaSWHwwMPZnJAmrw9elz54g4eowJS/Pm4T9mtEd9vtI"
    "BO/0VEl2kKxT0DY4sIPE4EZa7UtLEn7CTtMnW0h81RFTmzaTUC2RKXLeRKKozGOcIXm3FEkV"
    "rpDM274bbB61IGHBaztpaEOiXDNoyi97yX3s7F5qjiuJcxo1ig+9SAwt22T55BiJ3ta6Lo3T"
    "JNRvptp2xEn4+NossjuDxP8CZvjvUwAAAAABAAAAAgAAAAMAAAAEAAAABQAAAAYAAAAHAAAA"
    "CAAAAAkAAAAKAAAACwAAAA=="
)


_ZFP_ABS_PAYLOAD_B64 = (
    "UkJDRgEAeJztlPtXDgYYx7/P87y93RSiSKU6Lh2XVigbiVzSyiUxooZRSE106n1HWM2i3GNL"
    "t8UxSZiOUnIJvRKj3KJQsVore1t725aFs2Hv7Ad/xPqc89yf55znnOecRwAY6eX3sKakohdX"
    "xvfQ+2C8xes/A+tu73JQAA54R99ZBdf9ZygPnLEJ8FGcHWc0Yo9oggwaF8rcRYriyXK0WU65"
    "yp79ctxeDq2SfHNJ8ZGOv7m7kxi28gxjuVDNmjZ+c4kT77Aml3sWsiSzYSrfVLH7Oh4SxOuD"
    "2N6TK8aypj9b92O7NxTxgnyeUFk1+ZeQcwFNS6eineSvohVhFDWLFkyi8qGUbkMhCprwDCGP"
    "sbASdUUwzEbzTgSuR/oyLJ4NM094DMHC3ph5PbSkj3HLEMvvNiMtgKe0oe8k+aIA9hsRP5hq"
    "fqBGF3LKQ0w0ZbvQ4S9oYiRe5JIuDStO0Holakoo1AieBaSLxLnjlBmH4mTKaMQmNamew3E6"
    "1UyhWEeqnkeprcjdRZWnkL6PsmJQX0xVo6HNp12mWFpCF/xQl0O127Ahk8rKcVRNU1+jNJDy"
    "XahoED0MpvudWBVH9ucRn0kt8bDJI08vlBRTkFuh/9huh5y7N5ViUG9p9IImgKIcMOY8Inrh"
    "rBrN3XA3AMOMcdwD1UoEOMPHAHED4KLAOluECLz7oILh3wtzGWN64DmhzAwnCOWmWE1wNIGn"
    "PmOEXoR0Q7QDWUrcBjQGKALIAFlAoAKJwCWBCnAXhADFjDmAN8MbeER4H4gmDAF6Euzw72BP"
    "YAFgAAzvVFtZmlQNNNKe5pe3sPs0P80m/bnvraJp26npEe5ewGc26LRD0ikkvcSaeHK4Rjc8"
    "uHcs73/Iaw1FPV3OLJeTu0W5V+5kycUtckwl8d4Sbi0jqzhsFxeO4tp6SoimKd3JIQstI5A1"
    "CWZ58O9PHl9Sxc+k9eKOFNbU8TIbSfSTAVFyYIuY7hXVDhmwQYqDReMqC57zskJesowTzTk1"
    "j6x96c/HaF+NhssHO/qYHX2tGLaao64pYm+xzpuWXBKtM01pkK9qYFcmZ45TkoVkmcjC/jw+"
    "USofYgQUs9bidb5MvEpH3MSvhnMG8OE0iXqF+VrxD4fpDXE7Qkp3yark4sn8U6JEmtLtNpnv"
    "i/gK6UglZx+5WsgWH3HEJvEdTDHNEjUKHtXS9jk5BEh+Nl8K50UqcfWgzU2S1BdjH0n7Smpf"
    "JBnJvHwjV4RL82za8USyazc3WJmNDlJ2hqJhMlU6InwbfuyB3OnoZ4I0V5xWItYRVxQI74td"
    "gm0WuMjYYo73GDmmuEJIMEYMocUQownfKqHUawM0AHcUKAUGKpAD7BMkA7aCDUAh41MgiLEI"
    "6MaYDVwlTAWSCOOBWQQ3fSdhOKDTjwOX9SGQBlgBawD9h/IDTN6W9M/ItiWt/ap580DDrRns"
    "eYEPraTdVhRij4JgJAymmRlU4sLqWA6qYKOHPK+eJ2Vz7WKuaSXzSAq9gwR3OMXgoBkZZ5OP"
    "HacksHs5r2plx2Z+oOFmNass+PBuqnsFTTD+mIocLXI3Un/mvHCuLObkBr71lAu/Z10Sn3Pi"
    "sBO0z5ZC4xAyCHbXEPgJRTyla4HsdIyd6lmrZYP7HJ3Bv3ixYQVZTqB1h7DGaLvfHNPaAwb2"
    "WnpzA27POcEWW8t55nWqf0btKZy6ETqSJv2GczkykEuH0godm6vxuoiH1dHEU6S7yWkfYGUT"
    "h86lvW68M459HwGdfK8I1Xu51JrrVeT/mNsskFzDlim05y8yP8y/fY2oDh4HOhnBjR9y00ga"
    "r+PMj7HyPPtVUUsZPbjM93yR3cqZk+mEJ09Xc8mvSH3G5jlY+g1Hm/C6zTS1ltFFF1100cX/"
    "kn8A63ziWw=="
)

_ZFP_ABS_RECON_SHA256 = (
    "68fa79085c762b45b3b5dcdb51bff93928cedcaa605094a41d6c5277154a2227"
)

_ZFP_REL_PAYLOAD_B64 = (
    "UkJDRgEAeJzt1PlvFGUYB/Dv8+7ZvTp799yddrs9OMoUKIJA2AS5RMJUaSgGyAQIRohhMVFo"
    "oLBIVYwmDGKqDQUGtAIquqmEQ0O6QACjAsMRYriygjQEE3mhCBQ1uIMk/BH2m8xnJvPL+8Pz"
    "fF8TAHvuOYeV5Zam/HFC7hsMj5P474VCx9N/MAMiniYwcknTM+Yj1acvscFNfB5rGKUm2JFa"
    "YQjbV5MsZ92VPMS+rVCdrDimP6LuMqGX1ojqdZoe5eepLJI8TrdK9L10oFjupOYi/UOqK0yu"
    "psthYTGtDvFGCgf5OOr0SzVU5dO9tE1I98GbL/yKZrd+HBed0teodwgf4X272oyLVj4XVRY+"
    "HktNejUOkOrGnRGtQat6VZmFMwXiFlwtl5dhtAVHIQTknzDJlnqALhcn2mRWSmihVYrSBGg1"
    "9DKS5fSZWYxQo0VwUTJPe4hZDukK2tzaITR6eAe+EhLL8Ujg07DAp1Ug7svY0Objddjtzc7G"
    "CK/cil354hdQPFLuIFfmBl50JEFnbYqfFljSUfqGJSqp4r2ZtfYV23kKf4ryQEQ96SDO2rgL"
    "982qHYtNghUtTDXjOiVNWEFphiEkMfRBJ5xAkrAbMmEjBEILOLAYOjAHaaABKjABSWCsQT1k"
    "YLBBFSSgzKDUIIzc0P0G+QZOA5sxW5NBa5+521o7k+u0w57Wqd2rt9DU/KSdivP4KsQJAbxl"
    "ww4EhJREN8OJnbQ8krUyOaZNZGJlaj7bX4nZzBFXJFZblrhGc4vFZuJ+7QGanOKrCDF1UG4K"
    "ajfqBD6RogX6d9QeEQJsdCw5jR2Mq/PZP3F9BuuN5bbpUFQ6RZ2FkkLkky5hUp7+PLqO7D1s"
    "X1bPNaoZlsnSdre+hm11ZT9mfXa5lV31JjxsvagvomNxbMDZASkZapU+hBrK0UM9If4Ka3dg"
    "C1tq5utYl1eJs/ul+lr6OZ7tgmmAWAetmgsUjqVO0R8Fwiw2zaVsYnGWVJlZEEeyqSV8M1nj"
    "2TPYVqMIGF4j3EGwQtlHO4ukKWygJ9PG7nxiOWxnz6XG4wO3FsKPloQTw00ZK+wsZcZCSphg"
    "JYXhGLKEDqQIKyESFgKEGcgAk6EBYwyGIwUMggJUGpQblBgtLTIIGQSMcgoGHgOXgcPAbmB9"
    "UuAnPK70uQWha3nNL/CD1FDKb6PTyQM4b8r1o9qbepPWFWlX6PUIbtLkkkwbvRPI3sVeeyaG"
    "i2Z5D9Z7hUXUW5S8QPVR/RatLRU+p8Eh2UmbHfJYPGBKB+7lo4myhanTdDKi3aaTpYku8oUT"
    "UepxJhqxnqS38b1HmEj+QvkH2hzJXQ8TIvrB3B4Iw2imW34N8/TrG20jxkiTqMWOv2kopS+Q"
    "6Ben0+5i/hKGiuoe3C8QN9Aql3CPuFnR6bJfipE1ko3j94jyGzrC+pcUzBP/onabvp9WhsSH"
    "2BXRXJgX4R4aFcRRetaa7KP9Dm0LvVEgn4AS5WMxrhQjqcen/0JBk9ZL77r11TS7CFvxaVRc"
    "grvF6hyaImg3CP3pT3/68z/NvwOXYaQ="
)

_ZFP_REL_RECON_SHA256 = (
    "de435937894f7e6c250eb1e4f1a99a9acb91bfe4d5af962cfe1a92266d437082"
)

_ZFP_PWREL_PAYLOAD_B64 = (
    "UkJDRgEAeJztVFtoXFUUXfvce+eRmXQmj0mmTZrcFJP0EeIltdHaWA95tEFLiVChQSgDSohS"
    "ZVqLDkXrKVYoxcDQD01KhKv+9KPgSH/q4+NSilZQGfyQKCiDSg2lytCvUiq6jjU0P/75I2TD"
    "cA5rzjl77bXXvjEACf6g8HfY/exzv3pzw7d3Z7m/LXdxfXfBQvLeWbiAj3vR8nH3o726sm+0"
    "o/zDqd9V65nCM5huKWV0zjmnpk6bl/FLvtCGT9xJV/+G71G+3wzg06SfhKeWRR/GDOptJocb"
    "bugiI7egH8YwKmmTwhUVKizgNHQPuhDETQxvSkHwJCYRNWEdKo5xcAUh0Is8ohhiCMQA91li"
    "o+PFbx0pHYV+2zki88d1Cscy2QQ+VGlEh/EYzudqgs8c3zFfYytqvehDKVFTWJSamEMYRKEZ"
    "6zHpElrClGA7Ib8BLZhVhI4jK9hIKPKQRUEIjaMG7gcBx5IDoS5UQVaEBGnqRij7x1xy/MLw"
    "hs3lsdcXnIGnwmO4mC41aVddV9lpcwoj2TCPnHPJjc7hJupdJsCBGBM/IXkV7cFR1NeZdjzg"
    "+B4+QF50H3YjSJhGfGlJPI15RDlsQsU1cbgSCh7EQUQpNKOoqNcrVq/11Eu7ZFYB9Wq1et28"
    "fqT6xlcjZ2N6Tj2Oyb1owLVkWXBWxqEn0IgwbRRmVBGmxNt+Hh7qLuuKSQDmSCNM0SRG8cEz"
    "LNVspK/YMsGs0Ej7qQya6J7QIXTVemvAQtZaNeu3WUvCMiFHWI5WS8aJ3sb2iS29L3QU/zz5"
    "kxrZWduFd+OTGT0qQzK1w7yGzoZCHN9J3tMFCl1uNjtxw+H9L3BJRdtIop4wm3BHtOBZXJWo"
    "nezrrsmjU8h3Fw6KbqRlqso0YxFaoQcJ0XFsRlFMBvsQKWRoAS4BWH2apbLDl2tDH3m3umfE"
    "nJAJYEuURMUri7lGH0T9PKPjfKsgRWCCGWuN1KuqWPtbfMZ0W71izF+0ht1vR8qKE1lxqivi"
    "mCQh394pWShvIY+S+Favh6w46ZUpLqzMMZbfH3lvvL/tx+Zg28lX5U53OIjn3eWYvog+oZm2"
    "Y9ELk2iSJdE7cAiVBpY9oGoOXrRdyXMUAo+JOzkFeIRdidJos+K4FIeJe5iY4jSApSocsI1q"
    "scPn0ExVGCFx1hInF23lDf75ZABLsz9/7k5nz7v+PMZUNRWN4RtUWk0HW8PRfweRUKGXUHeM"
    "T0EoTj9bQ0cP2amxD1KowPrWFhpYQlttvhzFKbjYwHmkOMOWUBsP0PcO/47AGcxajhxSh3hk"
    "e7fHLinbFQdrsRZrsRb/19D/0RvmX970V+2zq/aJVXv7gf8LrDP0Dw=="
)

_ZFP_PWREL_RECON_SHA256 = (
    "6ebdc803129a46e12f3043a0f10360eb8d41017b07e3054a198280de9bba9e39"
)


def _floats(encoded: str) -> np.ndarray:
    return np.frombuffer(base64.b64decode(encoded), dtype=np.float64)


def _payload(encoded: str) -> bytes:
    return base64.b64decode(encoded)


_SMOOTH = _floats(_SMOOTH_B64)


def _rejected(compressor, blob, version):
    with pytest.raises(
        ValueError, match=f"unsupported payload format version {version}$"
    ):
        compressor.decompress(blob)


class TestFrozenLosslessV1:
    def test_zlib_v1_rejected(self):
        blob = CompressedBlob(
            payload=_payload(_ZLIB_PAYLOAD_B64),
            shape=_SMOOTH.shape,
            dtype=_SMOOTH.dtype.str,
            compressor="zlib",
            meta={"level": 6},
        )
        assert blob.format_version == 0  # seed lossless blobs carry no version
        _rejected(ZlibCompressor(), blob, 0)

    def test_lzma_v1_rejected(self):
        blob = CompressedBlob(
            payload=_payload(_LZMA_PAYLOAD_B64),
            shape=_SMOOTH.shape,
            dtype=_SMOOTH.dtype.str,
            compressor="lzma",
            meta={"preset": 1},
        )
        _rejected(LzmaCompressor(), blob, 0)


class TestFrozenSZV1:
    def test_pw_rel_v1_rejected_v2_keeps_codes(self):
        compressor = SZCompressor(1e-4)
        blob = CompressedBlob(
            payload=_payload(_SZ_PWREL_PAYLOAD_B64),
            shape=_SMOOTH.shape,
            dtype=_SMOOTH.dtype.str,
            compressor="sz",
            meta={
                "error_bound": "pw_rel=0.0001",
                "predictor": "lorenzo",
                "format_version": 1,
                "scheme": "pw_rel",
            },
        )
        _rejected(compressor, blob, 1)
        recon, _ = compressor.roundtrip(_SMOOTH)
        assert recon.tobytes() == _payload(_SZ_PWREL_RECON_B64)

    def test_abs_v1_rejected_v2_keeps_codes(self):
        compressor = SZCompressor(ErrorBound.absolute(1e-5))
        blob = CompressedBlob(
            payload=_payload(_SZ_ABS_PAYLOAD_B64),
            shape=_SMOOTH.shape,
            dtype=_SMOOTH.dtype.str,
            compressor="sz",
            meta={
                "error_bound": "abs=1e-05",
                "predictor": "lorenzo",
                "format_version": 1,
                "scheme": "abs",
            },
        )
        _rejected(compressor, blob, 1)
        recon, _ = compressor.roundtrip(_SMOOTH)
        assert recon.tobytes() == _payload(_SZ_ABS_RECON_B64)


_ZFP_V1 = {
    "abs": (ErrorBound.absolute(1e-5), "zfp", _ZFP_ABS_PAYLOAD_B64, _ZFP_ABS_RECON_SHA256),
    "rel": (
        ErrorBound.value_range_relative(1e-4),
        "zfp",
        _ZFP_REL_PAYLOAD_B64,
        _ZFP_REL_RECON_SHA256,
    ),
    "pw_rel": (
        ErrorBound.pointwise_relative(1e-4),
        "pw_rel",
        _ZFP_PWREL_PAYLOAD_B64,
        _ZFP_PWREL_RECON_SHA256,
    ),
}


class TestFrozenZFPV1:
    @pytest.mark.parametrize("mode", sorted(_ZFP_V1))
    def test_v1_rejected_v2_keeps_codes(self, mode):
        bound, scheme, payload_b64, recon_sha256 = _ZFP_V1[mode]
        compressor = ZFPCompressor(bound)
        v1 = CompressedBlob(
            payload=_payload(payload_b64),
            shape=_SMOOTH.shape,
            dtype=_SMOOTH.dtype.str,
            compressor="zfp",
            meta={
                "error_bound": bound.describe(),
                "block_size": 64,
                "format_version": 1,
                "scheme": scheme,
            },
        )
        _rejected(compressor, v1, 1)
        # Same input through today's writer: a different container around the
        # same quantization codes, so the reconstruction the v1 reader used
        # to produce (pinned by SHA-256) is reproduced bit for bit.
        v2 = compressor.compress(_SMOOTH)
        assert v2.format_version == SHARDED_FORMAT_VERSION
        assert v2.meta["scheme"] == scheme
        assert v2.payload != v1.payload
        recon = compressor.decompress(v2)
        assert hashlib.sha256(recon.tobytes()).hexdigest() == recon_sha256


class TestFrozenSerializedCheckpoint:
    def test_seed_checkpoint_deserializes(self):
        parsed = deserialize_checkpoint(_payload(_CHECKPOINT_B64))
        assert parsed.meta["kind"] == "dynamic"
        assert parsed.entries["iteration"] == 42
        assert parsed.entries["rho"] == 0.125
        assert np.array_equal(parsed.entries["raw"], np.arange(12, dtype=np.int32))

    def test_seed_checkpoint_blobs_are_rejected(self):
        """The container parses; the blobs inside name formats no reader has."""
        parsed = deserialize_checkpoint(_payload(_CHECKPOINT_B64))
        x_blob = parsed.entries["x"]
        assert x_blob.format_version == 1
        _rejected(SZCompressor(1e-4), x_blob, 1)
        p_blob = parsed.entries["p"]
        assert p_blob.format_version == 0
        _rejected(ZlibCompressor(), p_blob, 0)
